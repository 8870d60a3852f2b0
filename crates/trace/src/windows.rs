//! Conflicting-access detection and acquire/release window extraction
//! (paper §4.1, "Forming acquire/release windows").
//!
//! For every pair of conflicting accesses `a` (earlier) and `b` (later) that
//! are temporally close (`T_b − T_a ≤ Near`), SherLock extracts the
//! operations executing between them: those from `a`'s thread form the
//! *release window* and those from `b`'s thread the *acquire window*. The
//! endpoints themselves are included — for variable-based synchronization the
//! conflicting write *is* the release and the conflicting read *is* the
//! acquire (paper Fig. 3.B).
//!
//! A static location pair may execute many times (e.g. inside a loop), so at
//! most [`WindowConfig::cap_per_pair`] windows are formed per pair of static
//! locations (15 in the paper).

use std::collections::HashMap;

use crate::event::{AccessClass, Event, ObjectId, ThreadId, Trace};
use crate::op::{OpId, OpRef};
use crate::time::Time;

/// Parameters of window extraction.
#[derive(Clone, Debug)]
pub struct WindowConfig {
    /// Maximum physical-time gap between two conflicting accesses for them to
    /// form a window (the paper's `Near`, 1 s by default; Table 7 sweeps it).
    pub near: Time,
    /// Upper bound on the number of windows one static location pair can
    /// form (15 in the paper).
    pub cap_per_pair: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            near: Time::from_secs(1),
            cap_per_pair: 15,
        }
    }
}

/// A synchronization candidate inside a window: a static operation and the
/// number of its dynamic instances observed in the window.
///
/// The Solver subtracts each candidate's probability variable only once no
/// matter how many instances appear (paper §4.2), but the occurrence count
/// feeds the Synchronizations-are-Rare penalty (Eq. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Static operation identity.
    pub op: OpId,
    /// Dynamic instances of `op` inside this window.
    pub count: u32,
}

/// An acquire/release window extracted around one dynamic conflicting pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Window {
    /// Static location of the earlier access `a`.
    pub a_op: OpId,
    /// Static location of the later access `b`.
    pub b_op: OpId,
    /// Thread of `a` (the releasing side).
    pub a_thread: ThreadId,
    /// Thread of `b` (the acquiring side).
    pub b_thread: ThreadId,
    /// Timestamp of `a`.
    pub a_time: Time,
    /// Timestamp of `b`.
    pub b_time: Time,
    /// Object both accesses touched.
    pub object: ObjectId,
    /// Release candidates: operations from `a`'s thread in `[T_a, T_b]`,
    /// deduplicated, with occurrence counts.
    pub release: Vec<Candidate>,
    /// Acquire candidates: operations from `b`'s thread in `[T_a, T_b]`.
    pub acquire: Vec<Candidate>,
    /// Whether any release candidate is release-capable under the
    /// Read-Acquire & Write-Release property.
    pub release_capable: bool,
    /// Whether any acquire candidate is acquire-capable.
    pub acquire_capable: bool,
}

impl Window {
    /// The ordered static location pair identifying this window's origin.
    pub fn pair(&self) -> (OpId, OpId) {
        (self.a_op, self.b_op)
    }

    /// Whether this window witnesses a data race: no operation in the
    /// release window can release, or none in the acquire window can acquire
    /// (paper §4.3, "A special type of observation").
    pub fn is_racy(&self) -> bool {
        !self.release_capable || !self.acquire_capable
    }
}

#[derive(Clone, Copy)]
struct OpMeta {
    /// Per-trace index of the accessed field's `"{class}::{field}"` name;
    /// `None` for thread-unsafe library call sites, which conflict
    /// per-object (the object id alone identifies the location).
    field: Option<u32>,
    can_release: bool,
    can_acquire: bool,
}

/// Per-trace [`OpMeta`] of each distinct operation, so every op is resolved
/// once per trace rather than once per event.
#[derive(Default)]
struct MetaCache {
    ops: HashMap<OpId, OpMeta>,
    fields: HashMap<String, u32>,
}

impl MetaCache {
    fn get(&mut self, op: OpId) -> OpMeta {
        if let Some(&meta) = self.ops.get(&op) {
            return meta;
        }
        let r = op.resolve();
        let field = match &r {
            OpRef::FieldRead { class, field } | OpRef::FieldWrite { class, field } => {
                let next = u32::try_from(self.fields.len()).expect("field index overflow");
                Some(
                    *self
                        .fields
                        .entry(format!("{class}::{field}"))
                        .or_insert(next),
                )
            }
            OpRef::MethodBegin { .. } | OpRef::MethodEnd { .. } => None,
        };
        let meta = OpMeta {
            field,
            can_release: r.can_release(),
            can_acquire: r.can_acquire(),
        };
        self.ops.insert(op, meta);
        meta
    }
}

/// The earlier accesses to one location, as event indices in index order.
#[derive(Default)]
struct Group {
    /// Every access.
    accesses: Vec<usize>,
    /// The writes alone: all a later read can conflict with.
    writes: Vec<usize>,
}

/// Extracts all acquire/release windows from a trace.
///
/// Two events conflict when they touch the same location (same object and —
/// for field accesses — the same fully-qualified field), come from different
/// threads, at least one is a write, and their time gap is at most
/// [`WindowConfig::near`]. Windows are returned in order of their later
/// endpoint, then their earlier one.
///
/// One pass over the events: a read scans back over the earlier writes to
/// its location, a write over every earlier access, each stopping at the
/// first one beyond `near`. The cost is O(accesses + conflicting pairs
/// scanned). The per-pair cap keeps the pairs met first in the order
/// "later endpoint ascending, nearer earlier endpoint first", which is the
/// scan order.
pub fn extract(trace: &Trace, cfg: &WindowConfig) -> Vec<Window> {
    let _s = sherlock_obs::span("windows.extract");
    let events = trace.events();
    let mut meta = MetaCache::default();
    let mut group_of: HashMap<(ObjectId, Option<u32>), usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut per_pair: HashMap<(OpId, OpId), usize> = HashMap::new();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut scanned: u64 = 0;

    for (j, ej) in events.iter().enumerate() {
        if ej.access == AccessClass::None {
            continue;
        }
        let key = (ej.object, meta.get(ej.op).field);
        let g = *group_of.entry(key).or_insert_with(|| {
            groups.push(Group::default());
            groups.len() - 1
        });
        let group = &mut groups[g];
        let earlier = match ej.access {
            AccessClass::Write => &group.accesses,
            _ => &group.writes,
        };
        let first = pairs.len();
        for &i in earlier.iter().rev() {
            let ei = &events[i];
            scanned += 1;
            // Events are in nondecreasing time order (`TraceBuilder` and the
            // JSON reader enforce it; `perturber::candidates_in` relies on
            // it too), so every access before this one is further still.
            if ej.time - ei.time > cfg.near {
                break;
            }
            if ei.thread == ej.thread {
                continue;
            }
            let count = per_pair.entry((ei.op, ej.op)).or_insert(0);
            if *count < cfg.cap_per_pair {
                *count += 1;
                pairs.push((i, j));
            }
        }
        // Scanned nearest first; emit earlier endpoint ascending.
        pairs[first..].reverse();
        group.accesses.push(j);
        if ej.access == AccessClass::Write {
            group.writes.push(j);
        }
    }
    sherlock_obs::counter!("windows.scan_steps").add(scanned);

    let mut scratch: Vec<OpId> = Vec::new();
    let out: Vec<Window> = pairs
        .into_iter()
        .map(|(i, j)| {
            sherlock_obs::histogram!("windows.span_events").observe((j - i + 1) as u64);
            build_window(events, i, j, &mut meta, &mut scratch)
        })
        .collect();
    sherlock_obs::counter!("windows.extracted").add(out.len() as u64);
    out
}

fn build_window(
    events: &[Event],
    i: usize,
    j: usize,
    meta: &mut MetaCache,
    scratch: &mut Vec<OpId>,
) -> Window {
    let a = &events[i];
    let b = &events[j];
    let release = thread_candidates(&events[i..=j], a.thread, scratch);
    let acquire = thread_candidates(&events[i..=j], b.thread, scratch);
    let release_capable = release.iter().any(|c| meta.get(c.op).can_release);
    let acquire_capable = acquire.iter().any(|c| meta.get(c.op).can_acquire);
    Window {
        a_op: a.op,
        b_op: b.op,
        a_thread: a.thread,
        b_thread: b.thread,
        a_time: a.time,
        b_time: b.time,
        object: a.object,
        release,
        acquire,
        release_capable,
        acquire_capable,
    }
}

/// The operations `thread` executed in `span`, in `OpId` order with their
/// occurrence counts. The result has exact capacity: the session memo keeps
/// these vectors for as long as it keeps the window.
fn thread_candidates(span: &[Event], thread: ThreadId, scratch: &mut Vec<OpId>) -> Vec<Candidate> {
    scratch.clear();
    scratch.extend(span.iter().filter(|e| e.thread == thread).map(|e| e.op));
    scratch.sort_unstable();
    let sorted: &[OpId] = scratch;
    let mut out = Vec::with_capacity(sorted.chunk_by(OpId::eq).count());
    out.extend(sorted.chunk_by(OpId::eq).map(|run| Candidate {
        op: run[0],
        count: run.len() as u32,
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceBuilder;
    use std::collections::BTreeMap;

    /// The straightforward extractor the one-pass [`extract`] must match:
    /// every access walks back over every earlier access to its location,
    /// and the cap is applied after a global sort of all candidate pairs.
    fn extract_quadratic(trace: &Trace, cfg: &WindowConfig) -> Vec<Window> {
        let events = trace.events();
        let loc = |op: OpId| match op.resolve() {
            OpRef::FieldRead { class, field } | OpRef::FieldWrite { class, field } => {
                Some(format!("{class}::{field}"))
            }
            OpRef::MethodBegin { .. } | OpRef::MethodEnd { .. } => None,
        };
        let mut groups: HashMap<(ObjectId, Option<String>), Vec<usize>> = HashMap::new();
        for (idx, ev) in events.iter().enumerate() {
            if ev.access != AccessClass::None {
                groups.entry((ev.object, loc(ev.op))).or_default().push(idx);
            }
        }
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for group in groups.values() {
            for (gj, &j) in group.iter().enumerate() {
                let ej = &events[j];
                for &i in group[..gj].iter().rev() {
                    let ei = &events[i];
                    if ej.time - ei.time > cfg.near {
                        break;
                    }
                    if ei.thread != ej.thread && ei.access.conflicts_with(ej.access) {
                        candidates.push((i, j));
                    }
                }
            }
        }
        candidates.sort_unstable_by_key(|&(i, j)| (j, std::cmp::Reverse(i)));
        let mut per_pair: HashMap<(OpId, OpId), usize> = HashMap::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (i, j) in candidates {
            let count = per_pair.entry((events[i].op, events[j].op)).or_insert(0);
            if *count < cfg.cap_per_pair {
                *count += 1;
                pairs.push((i, j));
            }
        }
        pairs.sort_unstable_by_key(|&(i, j)| (j, i));
        let side = |thread: ThreadId, i: usize, j: usize| -> Vec<Candidate> {
            let mut counts: BTreeMap<OpId, u32> = BTreeMap::new();
            for ev in events[i..=j].iter().filter(|e| e.thread == thread) {
                *counts.entry(ev.op).or_insert(0) += 1;
            }
            counts
                .into_iter()
                .map(|(op, count)| Candidate { op, count })
                .collect()
        };
        pairs
            .into_iter()
            .map(|(i, j)| {
                let (a, b) = (&events[i], &events[j]);
                let release = side(a.thread, i, j);
                let acquire = side(b.thread, i, j);
                Window {
                    a_op: a.op,
                    b_op: b.op,
                    a_thread: a.thread,
                    b_thread: b.thread,
                    a_time: a.time,
                    b_time: b.time,
                    object: a.object,
                    release_capable: release.iter().any(|c| c.op.resolve().can_release()),
                    acquire_capable: acquire.iter().any(|c| c.op.resolve().can_acquire()),
                    release,
                    acquire,
                }
            })
            .collect()
    }

    /// SplitMix64, enough for seeded test traces.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// A random trace over a few threads, fields, objects and per-object
    /// library call sites, with many equal timestamps.
    fn random_trace(seed: u64) -> Trace {
        let mut rng = Rng(seed);
        let threads = 2 + rng.below(3) as u32;
        let len = 20 + rng.below(180);
        let mut tb = TraceBuilder::new();
        let mut t = 0;
        for _ in 0..len {
            // Half the events share the previous timestamp.
            t += rng.below(2) * rng.below(40);
            let time = Time::from_micros(t);
            let thread = rng.below(u64::from(threads)) as u32;
            let object = 1 + rng.below(3);
            let field = ["x", "y", "z"][rng.below(3) as usize];
            match rng.below(6) {
                0 | 1 => tb.push(time, thread, r("Rnd", field), object),
                2 => tb.push(time, thread, w("Rnd", field), object),
                3 => {
                    let access = if rng.below(2) == 0 {
                        AccessClass::Read
                    } else {
                        AccessClass::Write
                    };
                    let call = ["Add", "Get"][rng.below(2) as usize];
                    let op = OpRef::lib_begin("RndList", call).intern();
                    tb.push_classified(time, thread, op, object, access);
                }
                4 => {
                    let op = OpRef::lib_end("RndList", "Add").intern();
                    tb.push_classified(time, thread, op, object, AccessClass::None);
                }
                _ => tb.push(time, thread, OpRef::app_begin("Rnd", "m").intern(), object),
            }
        }
        tb.finish()
    }

    #[test]
    fn one_pass_matches_quadratic_oracle_on_random_traces() {
        let mut windows = 0;
        for seed in 0..200 {
            let trace = random_trace(seed);
            for near in [Time::from_micros(30), Time::from_secs(1)] {
                for cap_per_pair in [1, 3, 15] {
                    let cfg = WindowConfig { near, cap_per_pair };
                    let expected = extract_quadratic(&trace, &cfg);
                    assert_eq!(
                        extract(&trace, &cfg),
                        expected,
                        "seed {seed}, near {near:?}, cap {cap_per_pair}"
                    );
                    windows += expected.len();
                }
            }
        }
        assert!(
            windows > 10_000,
            "random traces formed only {windows} windows"
        );
    }

    #[test]
    fn spin_reads_cost_linear_time() {
        // One field spin-read by three threads and written five times: each
        // read scans only the earlier writes. Walking back over every earlier
        // access instead costs ~1.25e9 steps here, over ten times the bound
        // in a debug build.
        const READS: u64 = 50_000;
        let mut tb = TraceBuilder::new();
        for k in 0..READS {
            if k % 10_000 == 5_000 {
                tb.push(Time::from_micros(k), 0, w("Spin", "hot"), 1);
            }
            tb.push(
                Time::from_micros(k),
                1 + (k % 3) as u32,
                r("Spin", "hot"),
                1,
            );
        }
        let trace = tb.finish();
        let start = std::time::Instant::now();
        let ws = extract(&trace, &WindowConfig::default());
        let elapsed = start.elapsed();
        // Static pairs: (write, read) and (read, write), each capped at 15.
        assert_eq!(ws.len(), 30);
        assert!(
            elapsed < std::time::Duration::from_millis(150),
            "extracting {} events took {elapsed:?}",
            trace.len()
        );
    }

    fn w(class: &str, field: &str) -> OpId {
        OpRef::field_write(class, field).intern()
    }
    fn r(class: &str, field: &str) -> OpId {
        OpRef::field_read(class, field).intern()
    }

    #[test]
    fn basic_write_read_window() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(1), 0, w("W", "flag"), 9);
        tb.push(
            Time::from_millis(2),
            0,
            OpRef::app_end("W", "produce").intern(),
            9,
        );
        tb.push(
            Time::from_millis(3),
            1,
            OpRef::app_begin("W", "consume").intern(),
            9,
        );
        tb.push(Time::from_millis(4), 1, r("W", "flag"), 9);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert_eq!(ws.len(), 1);
        let win = &ws[0];
        assert_eq!(win.a_op, w("W", "flag"));
        assert_eq!(win.b_op, r("W", "flag"));
        assert_eq!(win.release.len(), 2); // flag write + produce-End
        assert_eq!(win.acquire.len(), 2); // consume-Begin + flag read
        assert!(win.release_capable && win.acquire_capable);
        assert!(!win.is_racy());
    }

    #[test]
    fn near_filter_drops_distant_pairs() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(0), 0, w("N", "x"), 1);
        tb.push(Time::from_secs(2), 1, r("N", "x"), 1);
        assert!(extract(&tb.finish(), &WindowConfig::default()).is_empty());

        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(0), 0, w("N", "x"), 1);
        tb.push(Time::from_secs(2), 1, r("N", "x"), 1);
        let wide = WindowConfig {
            near: Time::from_secs(100),
            ..WindowConfig::default()
        };
        assert_eq!(extract(&tb.finish(), &wide).len(), 1);
    }

    #[test]
    fn same_thread_accesses_do_not_conflict() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(1), 0, w("S", "x"), 1);
        tb.push(Time::from_millis(2), 0, r("S", "x"), 1);
        assert!(extract(&tb.finish(), &WindowConfig::default()).is_empty());
    }

    #[test]
    fn read_read_does_not_conflict() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(1), 0, r("RR", "x"), 1);
        tb.push(Time::from_millis(2), 1, r("RR", "x"), 1);
        assert!(extract(&tb.finish(), &WindowConfig::default()).is_empty());
    }

    #[test]
    fn different_objects_do_not_conflict() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(1), 0, w("O", "x"), 1);
        tb.push(Time::from_millis(2), 1, r("O", "x"), 2);
        assert!(extract(&tb.finish(), &WindowConfig::default()).is_empty());
    }

    #[test]
    fn different_fields_on_same_object_do_not_conflict() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_millis(1), 0, w("F", "x"), 1);
        tb.push(Time::from_millis(2), 1, r("F", "y"), 1);
        assert!(extract(&tb.finish(), &WindowConfig::default()).is_empty());
    }

    #[test]
    fn cap_limits_windows_per_static_pair() {
        let cfg = WindowConfig {
            cap_per_pair: 3,
            ..WindowConfig::default()
        };
        let mut tb = TraceBuilder::new();
        let mut t = 0;
        for _ in 0..10 {
            tb.push(Time::from_micros(t), 0, w("Cap", "x"), 1);
            t += 1;
            tb.push(Time::from_micros(t), 1, r("Cap", "x"), 1);
            t += 1;
        }
        let ws = extract(&tb.finish(), &cfg);
        // Both (write→read) and (read→write) static pairs exist; each capped.
        let wr = ws
            .iter()
            .filter(|x| x.pair() == (w("Cap", "x"), r("Cap", "x")))
            .count();
        let rw = ws
            .iter()
            .filter(|x| x.pair() == (r("Cap", "x"), w("Cap", "x")))
            .count();
        assert_eq!(wr, 3);
        assert_eq!(rw, 3);
    }

    #[test]
    fn candidates_deduplicate_with_counts() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(1), 0, w("Dup", "x"), 1);
        for k in 2..7 {
            tb.push(
                Time::from_micros(k),
                1,
                OpRef::app_begin("Dup", "poll").intern(),
                1,
            );
        }
        tb.push(Time::from_micros(7), 1, r("Dup", "x"), 1);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert_eq!(ws.len(), 1);
        let poll = OpRef::app_begin("Dup", "poll").intern();
        let cand = ws[0].acquire.iter().find(|c| c.op == poll).unwrap();
        assert_eq!(cand.count, 5);
    }

    #[test]
    fn racy_when_release_side_has_only_reads() {
        // Spin-loop reads *before* the write: the (read → write) pair has a
        // release window of pure reads, which cannot release — a witnessed
        // race (the reason flags "should be marked volatile", paper §5.5).
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(1), 1, r("Spin", "f"), 1);
        tb.push(Time::from_micros(2), 1, r("Spin", "f"), 1);
        tb.push(Time::from_micros(3), 0, w("Spin", "f"), 1);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        // Two (read→write) windows, both racy.
        assert!(!ws.is_empty());
        assert!(ws.iter().all(|x| x.is_racy()));
        assert!(ws.iter().all(|x| !x.release_capable));
    }

    #[test]
    fn write_write_conflicts() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(1), 0, w("WW", "x"), 1);
        tb.push(Time::from_micros(2), 1, w("WW", "x"), 1);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert_eq!(ws.len(), 1);
        // The acquire window holds only a write → cannot acquire → racy.
        assert!(ws[0].is_racy());
        assert!(!ws[0].acquire_capable);
        assert!(ws[0].release_capable);
    }

    #[test]
    fn thread_unsafe_api_calls_conflict_per_object() {
        let add_b = OpRef::lib_begin("List", "Add").intern();
        let add_e = OpRef::lib_end("List", "Add").intern();
        let mut tb = TraceBuilder::new();
        tb.push_classified(Time::from_micros(1), 0, add_b, 5, AccessClass::Write);
        tb.push_classified(Time::from_micros(2), 0, add_e, 5, AccessClass::None);
        tb.push_classified(Time::from_micros(3), 1, add_b, 5, AccessClass::Write);
        tb.push_classified(Time::from_micros(4), 1, add_e, 5, AccessClass::None);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].pair(), (add_b, add_b));
        // Lib begins are release- and acquire-capable.
        assert!(!ws[0].is_racy());
    }

    #[test]
    fn third_party_thread_events_are_excluded_from_candidates() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(1), 0, w("TP", "x"), 1);
        tb.push(
            Time::from_micros(2),
            2,
            OpRef::app_begin("TP", "noise").intern(),
            1,
        );
        tb.push(Time::from_micros(3), 1, r("TP", "x"), 1);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert_eq!(ws.len(), 1);
        let noise = OpRef::app_begin("TP", "noise").intern();
        assert!(ws[0].release.iter().all(|c| c.op != noise));
        assert!(ws[0].acquire.iter().all(|c| c.op != noise));
    }

    #[test]
    fn windows_sorted_by_later_endpoint() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(1), 0, w("Ord", "x"), 1);
        tb.push(Time::from_micros(2), 1, r("Ord", "x"), 1);
        tb.push(Time::from_micros(3), 0, w("Ord", "y"), 1);
        tb.push(Time::from_micros(4), 1, r("Ord", "y"), 1);
        let ws = extract(&tb.finish(), &WindowConfig::default());
        assert!(ws.windows(2).all(|p| p[0].b_time <= p[1].b_time));
    }
}
