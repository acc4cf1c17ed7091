//! Service metrics: request/response counters, a fixed-bucket latency
//! histogram, job-queue accounting — everything `GET /metrics` reports,
//! maintained lock-free on atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fetchmech::json::Value;

/// Upper bucket bounds (milliseconds) of the request-latency histogram; a
/// final implicit `+inf` bucket catches the rest.
pub(crate) const LATENCY_BUCKETS_MS: [u64; 13] =
    [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000];

/// All service counters. Every field is monotonically increasing except the
/// queue gauges, which are sampled live at render time.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    /// Requests accepted for parsing, by endpoint.
    pub req_simulate: AtomicU64,
    /// `POST /v1/sweep` requests.
    pub req_sweep: AtomicU64,
    /// `POST /v1/programs` requests (frontend uploads).
    pub req_programs: AtomicU64,
    /// `GET /healthz` requests.
    pub req_healthz: AtomicU64,
    /// `GET /metrics` requests.
    pub req_metrics: AtomicU64,
    /// Requests to unknown paths / wrong methods / unreadable requests.
    pub req_other: AtomicU64,

    /// 200 responses.
    pub resp_ok: AtomicU64,
    /// 400 responses (validation / parse failures).
    pub resp_bad_request: AtomicU64,
    /// 404/405 responses.
    pub resp_not_found: AtomicU64,
    /// 413 responses (over the size limits).
    pub resp_too_large: AtomicU64,
    /// 429 responses (admission control shed the request).
    pub resp_shed: AtomicU64,
    /// 500 responses (a job panicked).
    pub resp_internal: AtomicU64,
    /// 503 responses (shutting down / connection limit).
    pub resp_unavailable: AtomicU64,
    /// 504 responses (per-request deadline expired).
    pub resp_deadline: AtomicU64,

    /// Jobs admitted to the bounded queue.
    pub jobs_enqueued: AtomicU64,
    /// Requests that attached to an identical in-flight job instead of
    /// enqueueing a duplicate.
    pub jobs_coalesced: AtomicU64,
    /// Jobs that ran to completion.
    pub jobs_completed: AtomicU64,
    /// Jobs skipped by the between-jobs cancellation check (every waiter
    /// had already given up, or the job deadline had passed).
    pub jobs_expired: AtomicU64,
    /// Jobs refused because the queue was full.
    pub jobs_shed: AtomicU64,
    /// Jobs whose simulation panicked (reported as 500s).
    pub jobs_failed: AtomicU64,

    /// Latency histogram bucket counts for `/v1/simulate` and `/v1/sweep`
    /// (one slot per [`LATENCY_BUCKETS_MS`] entry plus the `+inf` overflow).
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_MS.len() + 1],
    /// Total latency across recorded requests, microseconds.
    latency_sum_micros: AtomicU64,
    /// Recorded requests.
    latency_count: AtomicU64,
}

impl Metrics {
    /// A zeroed metrics block.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one simulate/sweep request latency.
    pub(crate) fn record_latency(&self, elapsed: Duration) {
        let ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
        let slot = LATENCY_BUCKETS_MS
            .iter()
            .position(|&le| ms <= le)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.latency_buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_micros.fetch_add(
            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps the response-class counter for `status`.
    pub(crate) fn record_status(&self, status: u16) {
        let counter = match status {
            200 => &self.resp_ok,
            400 => &self.resp_bad_request,
            404 | 405 => &self.resp_not_found,
            413 => &self.resp_too_large,
            429 => &self.resp_shed,
            503 => &self.resp_unavailable,
            504 => &self.resp_deadline,
            _ => &self.resp_internal,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the counters (plus the queue gauges, worker-panic count,
    /// store stats, and lab-cache stats the caller samples) as the
    /// `/metrics` JSON document. `store` is the persistence tier's section
    /// (typically [`crate::store::Store::to_json`], or a
    /// `{"state": "disabled"}` stub when no store is configured).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn to_json(
        &self,
        uptime: Duration,
        queue_depth: usize,
        queue_capacity: usize,
        jobs_running: usize,
        workers: usize,
        worker_panics: u64,
        store: &Value,
        lab_cache: &Value,
    ) -> Value {
        let load = |c: &AtomicU64| Value::Uint(c.load(Ordering::Relaxed));
        let count = self.latency_count.load(Ordering::Relaxed);
        let sum_micros = self.latency_sum_micros.load(Ordering::Relaxed);
        #[allow(clippy::cast_precision_loss)]
        let mean_ms = if count == 0 {
            0.0
        } else {
            sum_micros as f64 / count as f64 / 1000.0
        };
        let mut buckets: Vec<Value> = Vec::with_capacity(LATENCY_BUCKETS_MS.len() + 1);
        for (i, le) in LATENCY_BUCKETS_MS.iter().enumerate() {
            buckets.push(Value::object([
                ("le_ms", Value::Uint(*le)),
                ("count", load(&self.latency_buckets[i])),
            ]));
        }
        buckets.push(Value::object([
            ("le_ms", Value::Str("inf".to_string())),
            (
                "count",
                load(&self.latency_buckets[LATENCY_BUCKETS_MS.len()]),
            ),
        ]));

        Value::object([
            ("uptime_secs", Value::Uint(uptime.as_secs())),
            (
                "requests",
                Value::object([
                    ("simulate", load(&self.req_simulate)),
                    ("sweep", load(&self.req_sweep)),
                    ("programs", load(&self.req_programs)),
                    ("healthz", load(&self.req_healthz)),
                    ("metrics", load(&self.req_metrics)),
                    ("other", load(&self.req_other)),
                ]),
            ),
            (
                "responses",
                Value::object([
                    ("ok_200", load(&self.resp_ok)),
                    ("bad_request_400", load(&self.resp_bad_request)),
                    ("not_found_404", load(&self.resp_not_found)),
                    ("too_large_413", load(&self.resp_too_large)),
                    ("shed_429", load(&self.resp_shed)),
                    ("internal_500", load(&self.resp_internal)),
                    ("unavailable_503", load(&self.resp_unavailable)),
                    ("deadline_504", load(&self.resp_deadline)),
                ]),
            ),
            (
                "jobs",
                Value::object([
                    ("enqueued", load(&self.jobs_enqueued)),
                    ("coalesced", load(&self.jobs_coalesced)),
                    ("completed", load(&self.jobs_completed)),
                    ("expired", load(&self.jobs_expired)),
                    ("shed", load(&self.jobs_shed)),
                    ("failed", load(&self.jobs_failed)),
                    ("queue_depth", Value::Uint(queue_depth as u64)),
                    ("queue_capacity", Value::Uint(queue_capacity as u64)),
                    ("running", Value::Uint(jobs_running as u64)),
                    ("workers", Value::Uint(workers as u64)),
                    ("worker_panics", Value::Uint(worker_panics)),
                ]),
            ),
            ("store", store.clone()),
            (
                "latency",
                Value::object([
                    ("count", Value::Uint(count)),
                    ("mean_ms", Value::Num(mean_ms)),
                    ("buckets", Value::Array(buckets)),
                ]),
            ),
            ("lab_cache", lab_cache.clone()),
        ])
    }
}
