//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call a workload makes into the
//! library in [`span`]. With tracing off that is one relaxed load and a
//! direct call. With tracing on, each span gets a name, start, end,
//! parent span and request id. Spans on the same thread nest through a
//! thread-local stack. The server thread's spans take the open wire
//! request of the client thread as parent: the one TCP client is
//! sequential, so one shared "current request" ties them together.
//!
//! Per name the recorder keeps count, total time, self time (total
//! minus the time child spans cover) and a duration histogram. The
//! first [`RAW_CAP`] raw spans are kept too and written out when the run
//! ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::stats::Histogram;

/// Raw spans kept for the trace file.
pub const RAW_CAP: usize = 20_000;

/// Every span the benchmark records: one per library call it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// `ModelManager::ingest`.
    ManagerIngest,
    /// `OnlineModel::batch_error` of the served line fit.
    BatchError,
    /// `OnlineModel::retrain` of the served line fit.
    Retrain,
    /// `Sampler::observe`.
    Observe,
    /// `Sampler::publish`.
    Publish,
    /// `SampleReader::wait_for_epoch`.
    ReaderWait,
    /// `INGEST` round trip.
    WireIngest,
    /// `SUBSCRIBE_EPOCH` round trip.
    WireSubscribe,
    /// `PREDICT` round trip.
    WirePredict,
    /// `RETRAIN` round trip.
    WireRetrain,
    /// `CHECKPOINT_PULL` round trip.
    WireCheckpointPull,
}

impl Name {
    /// Every name, in report order.
    pub const ALL: [Name; 11] = [
        Name::ManagerIngest,
        Name::BatchError,
        Name::Retrain,
        Name::Observe,
        Name::Publish,
        Name::ReaderWait,
        Name::WireIngest,
        Name::WireSubscribe,
        Name::WirePredict,
        Name::WireRetrain,
        Name::WireCheckpointPull,
    ];

    /// `layer.call` label written to the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Name::ManagerIngest => "api.manager_ingest",
            Name::BatchError => "ml.batch_error",
            Name::Retrain => "ml.retrain",
            Name::Observe => "api.observe",
            Name::Publish => "api.publish",
            Name::ReaderWait => "api.reader_wait",
            Name::WireIngest => "wire.ingest",
            Name::WireSubscribe => "wire.subscribe_epoch",
            Name::WirePredict => "wire.predict",
            Name::WireRetrain => "wire.retrain",
            Name::WireCheckpointPull => "wire.checkpoint_pull",
        }
    }

    fn is_wire(self) -> bool {
        matches!(
            self,
            Name::WireIngest
                | Name::WireSubscribe
                | Name::WirePredict
                | Name::WireRetrain
                | Name::WireCheckpointPull
        )
    }
}

/// Aggregate of every span of one name.
#[derive(Clone, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their children cover.
    pub self_ns: u64,
    /// Span durations.
    pub hist: Histogram,
}

impl Agg {
    /// Mean span duration in ns (0 when no span was recorded).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64)
    }

    /// Mean self time in ns (0 when no span was recorded).
    pub fn mean_self_ns(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64, self.count as f64)
    }
}

struct Raw {
    name: Name,
    start_ns: u64,
    end_ns: u64,
    id: u64,
    parent: u64,
    request: u64,
}

/// Everything recorded while tracing was on.
#[derive(Default)]
pub struct Log {
    aggs: Vec<Agg>,
    /// Time covered by spans without a parent (the bench thread's own
    /// calls into the library).
    pub top_level_ns: u64,
    /// Spans recorded, raw ones dropped past [`RAW_CAP`] included.
    pub spans: u64,
    raw: Vec<Raw>,
}

impl Log {
    /// Aggregate for `name`.
    pub fn agg(&self, name: Name) -> Agg {
        let i = Name::ALL.iter().position(|&n| n == name).expect("listed");
        self.aggs.get(i).cloned().unwrap_or_default()
    }

    /// Write the raw spans as JSON lines to `path`.
    pub fn write_raw(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &self.raw {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"request\":{}}}",
                r.name.label(),
                r.start_ns,
                r.end_ns,
                r.id,
                r.parent,
                r.request
            )?;
        }
        out.flush()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static REQUEST: AtomicU64 = AtomicU64::new(0);
/// Id of the wire-request span open on the client thread (0 = none).
static REMOTE_PARENT: AtomicU64 = AtomicU64::new(0);
/// Time the server thread's spans covered under that request.
static REMOTE_CHILD_NS: AtomicU64 = AtomicU64::new(0);
static LOG: Mutex<Option<Log>> = Mutex::new(None);

thread_local! {
    /// Open spans of this thread: (id, time covered by finished children).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording spans.
pub fn enable() {
    now_ns();
    *LOG.lock().expect("trace log lock poisoned by a panic") = Some(Log {
        aggs: vec![Agg::default(); Name::ALL.len()],
        ..Log::default()
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording and hand back what was recorded.
pub fn take() -> Log {
    ENABLED.store(false, Ordering::SeqCst);
    LOG.lock()
        .expect("trace log lock poisoned by a panic")
        .take()
        .unwrap_or_default()
}

/// Tag the spans that follow with request `id` (the workload's
/// iteration number).
pub fn set_request(id: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        REQUEST.store(id, Ordering::Relaxed);
    }
}

/// Run `f` inside a span named `name`.
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let local_parent = STACK.with(|s| s.borrow().last().map(|&(p, _)| p));
    let parent = local_parent.unwrap_or_else(|| REMOTE_PARENT.load(Ordering::SeqCst));
    if name.is_wire() {
        REMOTE_CHILD_NS.store(0, Ordering::SeqCst);
        REMOTE_PARENT.store(id, Ordering::SeqCst);
    }
    STACK.with(|s| s.borrow_mut().push((id, 0)));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let dur = end_ns - start_ns;
    let (_, mut child_ns) = STACK.with(|s| s.borrow_mut().pop().expect("span stack balanced"));
    if name.is_wire() {
        REMOTE_PARENT.store(0, Ordering::SeqCst);
        child_ns += REMOTE_CHILD_NS.swap(0, Ordering::SeqCst);
    }
    if local_parent.is_some() {
        STACK.with(|s| {
            if let Some(top) = s.borrow_mut().last_mut() {
                top.1 += dur;
            }
        });
    } else if parent != 0 {
        REMOTE_CHILD_NS.fetch_add(dur, Ordering::SeqCst);
    }

    let mut guard = LOG.lock().expect("trace log lock poisoned by a panic");
    if let Some(log) = guard.as_mut() {
        let i = Name::ALL.iter().position(|&n| n == name).expect("listed");
        let agg = &mut log.aggs[i];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(child_ns);
        agg.hist.record(dur);
        if parent == 0 {
            log.top_level_ns += dur;
        }
        log.spans += 1;
        if log.raw.len() < RAW_CAP {
            log.raw.push(Raw {
                name,
                start_ns,
                end_ns,
                id,
                parent,
                request: REQUEST.load(Ordering::Relaxed),
            });
        }
    }
    out
}
