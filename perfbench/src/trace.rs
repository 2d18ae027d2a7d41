//! In-memory span recorder for the traced run, and the self-time
//! breakdown computed from it.
//!
//! A span is `(id, parent, op, name, start, end, thread)`. Spans nest
//! through a per-thread stack; a span opened on a worker thread names
//! its parent explicitly ([`span_in`]). Recording is off unless
//! [`set_enabled`] turned it on, and an inert guard reads no clock, so
//! the untraced run pays one relaxed load per call site.
//!
//! [`breakdown`] turns the spans under one root into two views:
//!
//! * per parent span, the time its children cover (the union of their
//!   intervals) plus its `unattributed` time adds up to its duration;
//! * per span name, a wall-clock *share*: every instant of the root's
//!   interval is split evenly among the innermost spans open at that
//!   instant (one per busy thread). Shares of all names add up to the
//!   root's wall time, so concurrent spans on a worker pool are not
//!   counted twice.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// Identifier of a recorded span; `0` means "no span".
pub type SpanId = u64;

/// One completed span. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: SpanId,
    pub parent: SpanId,
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn log() -> &'static Mutex<Vec<SpanRec>> {
    static LOG: OnceLock<Mutex<Vec<SpanRec>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Scope guard of one span; records on drop.
pub struct Guard {
    open: Option<(SpanId, SpanId, u64, String, u64)>,
}

impl Guard {
    /// This span's id (`0` while recording is off).
    pub fn id(&self) -> SpanId {
        self.open.as_ref().map_or(0, |o| o.0)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, op, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&id) {
                s.pop();
            }
        });
        let rec = SpanRec {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
            thread: THREAD.with(|t| *t),
        };
        log().lock().expect("span log poisoned").push(rec);
    }
}

/// Opens a span under the innermost open span of this thread.
pub fn span(name: impl Into<String>, op: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    open(parent, name.into(), op)
}

/// Opens a span under an explicit parent — for work handed to another
/// thread, whose own stack does not know the caller's span.
pub fn span_in(parent: SpanId, name: impl Into<String>, op: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    open(parent, name.into(), op)
}

fn open(parent: SpanId, name: String, op: u64) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        open: Some((id, parent, op, name, now_ns())),
    }
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<SpanRec> {
    log().lock().expect("span log poisoned").clone()
}

/// Writes the span log as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ms\":{:.6},\"end_ms\":{:.6},\"thread\":{}}}",
            s.id,
            s.parent,
            s.op,
            s.name,
            s.start_ns as f64 / 1e6,
            s.end_ns as f64 / 1e6,
            s.thread
        )?;
    }
    out.flush()
}

/// Per-name totals of one root's subtree.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed span durations (busy time; concurrent spans add up).
    pub total_ms: f64,
    /// Wall-clock share (see the module docs); shares sum to the root.
    pub share_ms: f64,
    /// Time inside these spans that no child span covers.
    pub unattributed_ms: f64,
}

/// The traced breakdown of one root span.
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub wall_ms: f64,
    /// Root time no child span covers.
    pub root_unattributed_ms: f64,
    pub by_name: BTreeMap<String, NameStats>,
}

impl Breakdown {
    pub fn total_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |s| s.total_ms)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |s| s.count)
    }

    /// One line per name: count, busy time and wall share.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<40} {:>7} {:>12} {:>12} {:>14}\n",
            "span", "count", "busy_ms", "share_ms", "unattributed_ms"
        );
        for (name, s) in &self.by_name {
            out.push_str(&format!(
                "{name:<40} {:>7} {:>12.3} {:>12.3} {:>14.3}\n",
                s.count, s.total_ms, s.share_ms, s.unattributed_ms
            ));
        }
        out.push_str(&format!(
            "{:<40} {:>7} {:>12} {:>12.3}\n",
            "(wall)", "", "", self.wall_ms
        ));
        out
    }
}

/// Computes the breakdown of `root`'s subtree and checks that it adds
/// up: every child lies inside its parent, so each parent's covered
/// plus unattributed time is its duration, and the wall shares of all
/// names sum to the root's wall time.
pub fn breakdown(all: &[SpanRec], root: SpanId) -> Result<Breakdown, String> {
    let mut children: BTreeMap<SpanId, Vec<usize>> = BTreeMap::new();
    for (i, s) in all.iter().enumerate() {
        children.entry(s.parent).or_default().push(i);
    }
    let root_idx = all
        .iter()
        .position(|s| s.id == root)
        .ok_or_else(|| format!("root span {root} was not recorded"))?;
    // the subtree, parents before children
    let mut tree = vec![root_idx];
    let mut k = 0;
    while k < tree.len() {
        if let Some(kids) = children.get(&all[tree[k]].id) {
            tree.extend(kids);
        }
        k += 1;
    }

    let mut by_name: BTreeMap<String, NameStats> = BTreeMap::new();
    let mut root_unattributed_ms = 0.0;
    for &i in &tree {
        let s = &all[i];
        let e = by_name.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_ms += s.ms();
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let mut iv: Vec<(u64, u64)> = Vec::with_capacity(kids.len());
        for &c in kids {
            let c = &all[c];
            if c.start_ns < s.start_ns || c.end_ns > s.end_ns {
                return Err(format!(
                    "span {} ({}) leaves its parent {}",
                    c.name, c.id, s.name
                ));
            }
            iv.push((c.start_ns, c.end_ns));
        }
        let unattributed = (s.end_ns - s.start_ns) - union_ns(&mut iv);
        e.unattributed_ms += unattributed as f64 / 1e6;
        if i == root_idx {
            root_unattributed_ms = unattributed as f64 / 1e6;
        }
    }

    // wall shares: sweep the subtree's boundaries; the innermost open
    // spans (open spans with no open child) split each interval evenly
    // (zero-length spans hold no share and are left out)
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(tree.len() * 2);
    for &i in &tree {
        if all[i].end_ns > all[i].start_ns {
            events.push((all[i].start_ns, true, i));
            events.push((all[i].end_ns, false, i));
        }
    }
    // at equal times, close before open so touching spans never overlap
    events.sort_by_key(|&(t, is_open, i)| (t, is_open, i));
    let parent_idx: BTreeMap<SpanId, usize> = tree.iter().map(|&i| (all[i].id, i)).collect();
    let mut open_kids: BTreeMap<usize, usize> = BTreeMap::new();
    let mut open: BTreeSet<usize> = BTreeSet::new();
    let mut leaves: BTreeSet<usize> = BTreeSet::new();
    let mut share: BTreeMap<usize, f64> = BTreeMap::new();
    let mut last_t = all[root_idx].start_ns;
    for (t, is_open, i) in events {
        if t > last_t && !leaves.is_empty() {
            let each = (t - last_t) as f64 / 1e6 / leaves.len() as f64;
            for &l in &leaves {
                *share.entry(l).or_default() += each;
            }
        }
        last_t = last_t.max(t);
        let parent = if i == root_idx {
            None
        } else {
            parent_idx.get(&all[i].parent).copied()
        };
        // a parent and its child may open or close at the same instant
        // in either order, so leaf state is derived from both counts
        if is_open {
            open.insert(i);
            if open_kids.get(&i).copied().unwrap_or(0) == 0 {
                leaves.insert(i);
            }
            if let Some(p) = parent {
                *open_kids.entry(p).or_default() += 1;
                leaves.remove(&p);
            }
        } else {
            open.remove(&i);
            leaves.remove(&i);
            if let Some(p) = parent {
                let n = open_kids.entry(p).or_default();
                *n -= 1;
                if *n == 0 && open.contains(&p) {
                    leaves.insert(p);
                }
            }
        }
    }
    for (i, ms) in share {
        by_name.entry(all[i].name.clone()).or_default().share_ms += ms;
    }
    let wall_ms = all[root_idx].ms();
    let shares: f64 = by_name.values().map(|s| s.share_ms).sum();
    if (shares - wall_ms).abs() > 1e-6 * wall_ms.max(1.0) {
        return Err(format!(
            "wall shares sum to {shares} ms, root wall is {wall_ms} ms"
        ));
    }
    Ok(Breakdown {
        wall_ms,
        root_unattributed_ms,
        by_name,
    })
}

/// Length of the union of `iv` (sorted in place).
fn union_ns(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}
