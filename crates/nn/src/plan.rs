//! Compiled execution plans: record-once/replay-many training steps.
//!
//! Training loops re-declare the same graph topology every minibatch.
//! Recording it on the [`crate::Tape`] is allocation-free (PR 2's
//! arena recycling), but still pays per-step op dispatch, shape
//! re-derivation, pool hashing, and node bookkeeping. This module
//! freezes one recorded step into an executable **plan**:
//!
//! * a forward step list with preresolved buffer slots (node indices —
//!   every shape was checked once, at record time) and activation
//!   fusion across the op pairs the fused `affine*` ops don't cover
//!   (`sigmoid(matmul(..))` and friends);
//! * a reverse-order backward step list that accumulates into
//!   preresolved gradient slots, with per-edge *first-touch* flags
//!   resolved at compile time (the interpreter discovers them
//!   dynamically through its `Option<Matrix>` slots).
//!
//! # Determinism argument
//!
//! Replay is **bit-identical** to the interpreted tape because every
//! plan step runs the *same* scalar kernels in the *same* order on the
//! *same* operands:
//!
//! * forward steps reuse each node's own value buffer and the exact
//!   record-path expressions (fusion only changes *where* the
//!   pre-activation lands, never the arithmetic — the activation is
//!   applied to identical input bits);
//! * backward steps replicate the interpreter's accumulate order. A
//!   first-touch edge mirrors the interpreter's install-into-empty-slot
//!   move: "compute the delta straight into the slot" for owned
//!   deltas, "copy" for borrowed ones, and "zero then accumulate" for
//!   the `*_acc_into` family (zero-then-add rather than a direct store,
//!   so `-0.0` deltas keep the interpreter's `0.0 + -0.0 == 0.0`
//!   bits). Later touches `add_assign` exactly like the interpreter.
//!
//! Scalar payloads (`scale`, `add_scalar`, `leaky_relu` and `filled`
//! leaves) are per-step *feeds*: the replaying tape writes new values
//! through into the recorded ops and the plan reads them live, so a
//! data-dependent scalar never invalidates the structure.
//!
//! # Lifecycle
//!
//! `record -> capture -> replay* -> (invalidate -> record -> capture)*`
//!
//! [`crate::Tape::begin_step`] captures after the first recorded step
//! and rewinds on subsequent boundaries. Any structural mismatch while
//! replaying (changed batch size, a different graph) materializes the
//! already-matched prefix with interpreter kernels, retires the stale
//! suffix, and falls back to recording; the next boundary re-captures.

use crate::tape::{keeps_grad, FusedAct, Node, Op};
use std::cell::Cell;
use tsgb_linalg::{Matrix, MatrixPool};

// ---------------------------------------------------------------------
// Mode gating: TSGB_PLAN env + per-thread override
// ---------------------------------------------------------------------

thread_local! {
    /// 0 = no override; 1 = plan on; 2 = plan off.
    static PLAN_OVERRIDE: Cell<u8> = const { Cell::new(0) };

    /// Cached `TSGB_PLAN` value; 0 = not read yet. Env lookups take a
    /// process-wide lock — far too slow for a per-step check.
    static PLAN_ENV: Cell<u8> = const { Cell::new(0) };
}

/// Whether tapes compile recorded steps into execution plans: the
/// [`with_plan_mode`] override if active, else `TSGB_PLAN`
/// (`on` | `off`), else on. Unrecognized values mean on.
pub fn plan_enabled() -> bool {
    let o = PLAN_OVERRIDE.with(Cell::get);
    if o != 0 {
        return o == 1;
    }
    let cached = PLAN_ENV.with(Cell::get);
    let code = if cached != 0 {
        cached
    } else {
        let code = match std::env::var("TSGB_PLAN").as_deref() {
            Ok("off") | Ok("0") | Ok("false") => 2,
            _ => 1,
        };
        PLAN_ENV.with(|c| c.set(code));
        code
    };
    code == 1
}

/// Runs `f` with plan compilation forced on or off for the current
/// thread (restored afterwards, also on panic). The equivalence tests
/// use this to compare the compiled and interpreted paths without
/// touching the process environment.
pub fn with_plan_mode<R>(on: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            PLAN_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(PLAN_OVERRIDE.with(|c| c.replace(if on { 1 } else { 2 })));
    f()
}

// ---------------------------------------------------------------------
// Plan structure
// ---------------------------------------------------------------------

/// One compiled forward step: recompute node `out`'s value in place.
/// `src == out` runs the node's own op; `src < out` is a fused
/// activation pair (compute `src`'s pre-activation directly into
/// `out`'s buffer, apply `out`'s activation in place — `src` stays
/// stale/dead).
#[derive(Clone, Copy)]
struct FwdStep {
    out: u32,
    src: u32,
}

/// The frozen forward schedule of a captured step.
pub(crate) struct FwdPlan {
    steps: Vec<FwdStep>,
    /// Nodes fused away: their value buffers are never refreshed
    /// during replay ([`crate::Tape::value`] refuses to read them).
    dead: Vec<bool>,
}

impl FwdPlan {
    /// Whether node `i` was fused away (its buffer holds stale bits).
    pub(crate) fn dead(&self, i: usize) -> bool {
        self.dead[i]
    }
}

/// One compiled backward step for a reached node. `flags_at` indexes
/// the step's per-edge first-touch flags; `scratch` indexes the plan's
/// shared scratch buffers (`u32::MAX` when the step needs none).
/// `acquire[acq_at..acq_end]` lists the interior gradient slots the
/// step touches first, each with the bank buffer it installs there;
/// `release` is the bank buffer the node's own (now dead) gradient
/// returns to once the step has run (`u32::MAX` for none).
#[derive(Clone, Copy)]
struct BwdStep {
    node: u32,
    flags_at: u32,
    scratch: u32,
    acq_at: u32,
    acq_end: u32,
    release: u32,
}

const NONE: u32 = u32::MAX;

/// A compiled backward sweep for one loss node, with preresolved
/// first-touch flags and pre-taken scratch buffers.
struct BwdPlan {
    loss: usize,
    steps: Vec<BwdStep>,
    /// Per-edge first-touch flags, in the exact order the interpreter
    /// visits edges; `true` mirrors "install into an empty slot".
    /// Pruned edges (into nodes that need no gradient) keep a
    /// placeholder slot so the positional indexing in [`run_step`]
    /// never shifts.
    flags: Vec<bool>,
    /// Reached slots that outlive the sweep (the `keeps_grad` leaves:
    /// parameter gradients for [`crate::Tape::grad_ref`]).
    /// Interior gradients are dead once their own step has run and
    /// live in [`Self::bank`] instead.
    kept: Vec<bool>,
    /// Gradient buffers of interior nodes, shared by liveness: a
    /// buffer is installed into a node's slot at its first touch and
    /// returns here right after the node's own step, ready for the next
    /// node of the same shape. A reverse sweep over an unrolled RNN
    /// keeps only a few timesteps' gradients live at once, so the bank
    /// holds O(width) buffers where one-per-node would hold O(depth).
    /// Every entry is `Some` between runs.
    bank: Vec<Option<Matrix>>,
    /// `(node, bank)` pairs, grouped per step by
    /// [`BwdStep::acq_at`]/[`BwdStep::acq_end`].
    acquire: Vec<(u32, u32)>,
    /// Bank buffer of the loss node's seed gradient (`NONE` when the
    /// loss has a kept slot).
    loss_bank: u32,
    /// Temporaries for the steps that need one (non-first-touch mapped
    /// deltas, fused-activation `dz`), one per distinct shape: a
    /// step's temporary is dead once the step has run.
    scratch: Vec<Matrix>,
    /// Transposes of the nodes consumed as `matmul_t` right-hand
    /// sides (weights of `Affine`/`Affine2`, the RHS of `Matmul`),
    /// refreshed once per run and shared by every step that consults
    /// them. `matmul_t(a, b)` is documented bit-identical to
    /// `matmul(a, bᵀ)`, and the plain `matmul` band kernel streams
    /// rows ~40% faster than the column-gathering `matmul_t`, so one
    /// cheap transpose amortized over the whole sweep (a recurrent
    /// weight is hit once per timestep) is a clear win.
    tcache: Vec<(u32, Matrix)>,
}

/// A captured step: the forward schedule plus lazily compiled backward
/// sweeps (one per loss node observed) and the replay cursors.
pub(crate) struct Replay {
    /// Ops re-declared (signature-matched) so far this step.
    pub(crate) cursor: usize,
    /// Nodes whose values are fresh this step: everything below was
    /// materialized (by the plan run or [`crate::Tape::eval`]).
    pub(crate) watermark: usize,
    pub(crate) fwd: FwdPlan,
    bwd: Vec<BwdPlan>,
}

fn fusable_producer(op: &Op) -> bool {
    matches!(
        op,
        Op::Matmul(..)
            | Op::Affine {
                act: FusedAct::Identity,
                ..
            }
            | Op::Affine2 {
                act: FusedAct::Identity,
                ..
            }
    )
}

impl Replay {
    /// Freezes the recorded node list into a forward plan. The pool is
    /// not pre-sized: replay re-uses every node buffer in place, and the
    /// first backward compile takes only the buffers its plan keeps.
    pub(crate) fn capture(nodes: &[Node]) -> Replay {
        let n = nodes.len();
        let mut uses = vec![0u32; n];
        for node in nodes {
            node.op.for_each_input(|id| uses[id.0] += 1);
        }

        // Activation fusion: a single-use Matmul / identity-Affine(2)
        // feeding an output-derivative activation collapses into one
        // step; the producer's buffer goes dead.
        let mut dead = vec![false; n];
        let mut fuse_src: Vec<u32> = (0..n as u32).collect();
        for i in 0..n {
            if let Op::Sigmoid(a) | Op::Tanh(a) | Op::Relu(a) = nodes[i].op {
                if uses[a.0] == 1 && fusable_producer(&nodes[a.0].op) {
                    dead[a.0] = true;
                    fuse_src[i] = a.0 as u32;
                }
            }
        }
        let steps = (0..n)
            .filter(|&i| !dead[i] && !matches!(nodes[i].op, Op::Leaf(_)))
            .map(|i| FwdStep {
                out: i as u32,
                src: fuse_src[i],
            })
            .collect();

        Replay {
            cursor: 0,
            watermark: 0,
            fwd: FwdPlan { steps, dead },
            bwd: Vec::new(),
        }
    }

    /// Starts a new replayed step: every op must be re-declared, every
    /// value is stale until the plan runs.
    pub(crate) fn rewind(&mut self) {
        self.cursor = 0;
        self.watermark = 0;
    }

    /// Dismantles the plan, yielding its scratch buffers for pooling.
    pub(crate) fn into_scratch(self) -> Vec<Matrix> {
        self.bwd
            .into_iter()
            .flat_map(|b| {
                b.scratch
                    .into_iter()
                    .chain(b.bank.into_iter().flatten())
                    .chain(b.tcache.into_iter().map(|(_, m)| m))
            })
            .collect()
    }

    /// Runs one fully matched step: the compiled forward (skipping
    /// anything [`crate::Tape::eval`] already materialized), then the
    /// compiled backward for `loss` (compiled on first use).
    pub(crate) fn execute(
        &mut self,
        nodes: &mut [Node],
        grads: &mut Vec<Option<Matrix>>,
        pool: &mut MatrixPool,
        loss: usize,
    ) {
        for step in &self.fwd.steps {
            let out = step.out as usize;
            if out < self.watermark {
                continue;
            }
            if step.src == step.out {
                exec_node(nodes, out, pool);
            } else {
                exec_fused(nodes, step.src as usize, out, pool);
            }
        }
        self.watermark = nodes.len();

        let idx = match self.bwd.iter().position(|b| b.loss == loss) {
            Some(idx) => idx,
            None => {
                let plan = BwdPlan::compile(nodes, loss, pool);
                self.bwd.push(plan);
                self.bwd.len() - 1
            }
        };
        self.bwd[idx].run(nodes, grads, pool, &self.fwd.dead);
    }
}

// ---------------------------------------------------------------------
// Forward execution
// ---------------------------------------------------------------------

/// Recomputes node `i`'s value in place with the interpreter's own
/// kernels and operand order — the unfused path, also used to
/// materialize deferred prefixes for [`crate::Tape::eval`] and
/// invalidation fallback.
pub(crate) fn exec_node(nodes: &mut [Node], i: usize, pool: &mut MatrixPool) {
    let (lo, hi) = nodes.split_at_mut(i);
    let node = &mut hi[0];
    let v = &mut node.value;
    match &node.op {
        Op::Leaf(_) => {}
        Op::Add(a, b) => lo[a.0].value.zip_map_into(&lo[b.0].value, |x, y| x + y, v),
        Op::Sub(a, b) => lo[a.0].value.zip_map_into(&lo[b.0].value, |x, y| x - y, v),
        Op::Mul(a, b) => lo[a.0].value.zip_map_into(&lo[b.0].value, |x, y| x * y, v),
        Op::Neg(a) => lo[a.0].value.map_into(|x| -x, v),
        Op::Scale(a, s) => {
            let s = *s;
            lo[a.0].value.map_into(|x| x * s, v)
        }
        Op::AddScalar(a, s) => {
            let s = *s;
            lo[a.0].value.map_into(|x| x + s, v)
        }
        Op::Detach(a) => v.copy_from(&lo[a.0].value),
        Op::Matmul(a, b) => {
            v.fill(0.0);
            lo[a.0].value.matmul_acc_into(&lo[b.0].value, v);
        }
        Op::Sigmoid(a) => lo[a.0].value.map_into(tsgb_linalg::detmath::sigmoid, v),
        Op::Tanh(a) => lo[a.0].value.map_into(tsgb_linalg::detmath::tanh, v),
        Op::Relu(a) => lo[a.0].value.map_into(|x| x.max(0.0), v),
        Op::LeakyRelu(a, slope) => {
            let slope = *slope;
            lo[a.0]
                .value
                .map_into(|x| if x >= 0.0 { x } else { slope * x }, v)
        }
        Op::Exp(a) => lo[a.0].value.map_into(f64::exp, v),
        Op::Ln(a) => lo[a.0].value.map_into(f64::ln, v),
        Op::Square(a) => lo[a.0].value.map_into(|x| x * x, v),
        Op::Abs(a) => lo[a.0].value.map_into(f64::abs, v),
        Op::Softplus(a) => lo[a.0]
            .value
            .map_into(|x| if x > 20.0 { x } else { (1.0 + x.exp()).ln() }, v),
        Op::Recip(a) => lo[a.0].value.map_into(|x| 1.0 / x, v),
        Op::Sum(a) => {
            let s = lo[a.0].value.sum();
            v.fill(s);
        }
        Op::Mean(a) => {
            let m = lo[a.0].value.mean();
            v.fill(m);
        }
        Op::AddRowBroadcast(a, row) => {
            v.copy_from(&lo[a.0].value);
            v.add_row_broadcast_assign(&lo[row.0].value);
        }
        Op::MulRowBroadcast(a, row) => {
            let x = &lo[a.0].value;
            let rv = &lo[row.0].value;
            for row_i in 0..x.rows() {
                for (o, (&xv, &sv)) in v
                    .row_mut(row_i)
                    .iter_mut()
                    .zip(x.row(row_i).iter().zip(rv.row(0)))
                {
                    *o = xv * sv;
                }
            }
        }
        Op::ConcatCols(a, b) => {
            let (xa, xb) = (&lo[a.0].value, &lo[b.0].value);
            let ca = xa.cols();
            for row in 0..xa.rows() {
                v.row_mut(row)[..ca].copy_from_slice(xa.row(row));
                v.row_mut(row)[ca..].copy_from_slice(xb.row(row));
            }
        }
        Op::SliceCols(a, start, end) => {
            let (start, end) = (*start, *end);
            let x = &lo[a.0].value;
            for row in 0..x.rows() {
                v.row_mut(row).copy_from_slice(&x.row(row)[start..end]);
            }
        }
        Op::ConcatRows(parts) => {
            let mut offset = 0;
            for p in parts {
                let m = &lo[p.0].value;
                for row in 0..m.rows() {
                    v.row_mut(offset + row).copy_from_slice(m.row(row));
                }
                offset += m.rows();
            }
        }
        Op::SliceRows(a, start, end) => {
            let (start, end) = (*start, *end);
            let x = &lo[a.0].value;
            for row in start..end {
                v.row_mut(row - start).copy_from_slice(x.row(row));
            }
        }
        Op::Im2Col(a, kernel) => {
            let kernel = *kernel;
            let x = &lo[a.0].value;
            let (t_len, c) = x.shape();
            let half = kernel / 2;
            v.fill(0.0);
            for row in 0..t_len {
                for k in 0..kernel {
                    let src = row as isize + k as isize - half as isize;
                    if src < 0 || src >= t_len as isize {
                        continue;
                    }
                    v.row_mut(row)[k * c..(k + 1) * c].copy_from_slice(x.row(src as usize));
                }
            }
        }
        Op::RowMean(a) => {
            let x = &lo[a.0].value;
            let inv = 1.0 / x.cols() as f64;
            for row in 0..x.rows() {
                v.row_mut(row)[0] = x.row(row).iter().sum::<f64>() * inv;
            }
        }
        Op::Transpose(a) => {
            let x = &lo[a.0].value;
            for row in 0..x.rows() {
                for col in 0..x.cols() {
                    v[(col, row)] = x[(row, col)];
                }
            }
        }
        Op::Affine { x, w, b, act } => {
            let act = *act;
            v.fill(0.0);
            lo[x.0].value.matmul_acc_into(&lo[w.0].value, v);
            v.add_row_broadcast_assign(&lo[b.0].value);
            act.apply(v);
        }
        Op::Affine2 { x, w, h, u, b, act } => {
            let act = *act;
            v.fill(0.0);
            lo[x.0].value.matmul_acc_into(&lo[w.0].value, v);
            // Separate h U accumulator, added afterwards: identical
            // summation order to the record path.
            let mut hu = pool.take_zeroed(v.rows(), v.cols());
            lo[h.0].value.matmul_acc_into(&lo[u.0].value, &mut hu);
            v.add_assign(&hu);
            pool.put(hu);
            v.add_row_broadcast_assign(&lo[b.0].value);
            act.apply(v);
        }
    }
}

/// Runs a fused activation pair: computes `src`'s pre-activation
/// directly into `out`'s buffer, then applies `out`'s activation in
/// place. `src`'s own buffer is left stale (dead). Bit-identical to
/// the unfused pair: the activation sees the exact pre-activation bits
/// the producer would have stored.
fn exec_fused(nodes: &mut [Node], src: usize, out: usize, pool: &mut MatrixPool) {
    let (lo, hi) = nodes.split_at_mut(out);
    let act = match hi[0].op {
        Op::Sigmoid(_) => FusedAct::Sigmoid,
        Op::Tanh(_) => FusedAct::Tanh,
        Op::Relu(_) => FusedAct::Relu,
        _ => unreachable!("only output-derivative activations fuse"),
    };
    let v = &mut hi[0].value;
    match &lo[src].op {
        Op::Matmul(a, b) => {
            v.fill(0.0);
            lo[a.0].value.matmul_acc_into(&lo[b.0].value, v);
        }
        Op::Affine { x, w, b, .. } => {
            v.fill(0.0);
            lo[x.0].value.matmul_acc_into(&lo[w.0].value, v);
            v.add_row_broadcast_assign(&lo[b.0].value);
        }
        Op::Affine2 { x, w, h, u, b, .. } => {
            v.fill(0.0);
            lo[x.0].value.matmul_acc_into(&lo[w.0].value, v);
            let mut hu = pool.take_zeroed(v.rows(), v.cols());
            lo[h.0].value.matmul_acc_into(&lo[u.0].value, &mut hu);
            v.add_assign(&hu);
            pool.put(hu);
            v.add_row_broadcast_assign(&lo[b.0].value);
        }
        _ => unreachable!("only matmul/identity-affine producers fuse"),
    }
    act.apply(v);
}

// ---------------------------------------------------------------------
// Backward compilation + execution
// ---------------------------------------------------------------------

/// Compile-time allocator for [`BwdPlan::bank`]: exact-shape free
/// lists over a growing set of buffers.
#[derive(Default)]
struct Bank {
    shapes: Vec<(usize, usize)>,
    free: Vec<((usize, usize), Vec<u32>)>,
}

impl Bank {
    /// A free buffer of `shape`, or a new one.
    fn take(&mut self, shape: (usize, usize)) -> u32 {
        let reused = self
            .free
            .iter_mut()
            .find(|(s, _)| *s == shape)
            .and_then(|(_, ids)| ids.pop());
        reused.unwrap_or_else(|| {
            self.shapes.push(shape);
            (self.shapes.len() - 1) as u32
        })
    }

    /// Returns buffer `id` (of `shape`) to its free list.
    fn give(&mut self, shape: (usize, usize), id: u32) {
        match self.free.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, ids)) => ids.push(id),
            None => self.free.push((shape, vec![id])),
        }
    }
}

impl BwdPlan {
    /// Simulates the interpreter's reverse sweep from `loss` over the
    /// frozen graph, recording which nodes are reached, the first-touch
    /// flag of every edge (in interpreter visit order), which steps
    /// need a scratch buffer, and the live range of every interior
    /// gradient — then takes the scratch and bank buffers from the
    /// pool.
    ///
    /// The edge enumeration here and the arms of [`BwdPlan::run`] must
    /// stay in lockstep: both walk a step's edges in the same order,
    /// consuming one flag each.
    fn compile(nodes: &[Node], loss: usize, pool: &mut MatrixPool) -> BwdPlan {
        let mut has = vec![false; nodes.len()];
        has[loss] = true;
        // Slots that outlive the sweep: the shared `keeps_grad` rule,
        // plus a loss that has no backward step of its own to release
        // its seed (a constant or detached loss). Every other node's
        // gradient lives in the bank from its first touch to its own
        // step.
        let kept = |i: usize| {
            keeps_grad(&nodes[i].op)
                || (i == loss && matches!(nodes[i].op, Op::Leaf(_) | Op::Detach(_)))
        };
        let mut steps = Vec::new();
        let mut flags = Vec::new();
        let mut scratch_shapes: Vec<(usize, usize)> = Vec::new();
        let mut bank = Bank::default();
        let mut acquire: Vec<(u32, u32)> = Vec::new();
        // Bank buffer currently installed in each interior slot.
        let mut slot = vec![NONE; nodes.len()];
        let loss_bank = if kept(loss) {
            NONE
        } else {
            bank.take(nodes[loss].value.shape())
        };
        slot[loss] = loss_bank;
        let mut touched: Vec<usize> = Vec::new();
        // Node ids whose transpose the sweep wants cached (`matmul_t`
        // right-hand sides of live edges); deduped below.
        let mut tneed: Vec<u32> = Vec::new();
        for i in (0..=loss).rev() {
            if !has[i] {
                continue;
            }
            let flags_at = flags.len() as u32;
            // Activated affines always need a dz temporary; mapped
            // edges add one below when they are not first-touch.
            let mut need_scratch = matches!(
                &nodes[i].op,
                Op::Affine { act, .. } | Op::Affine2 { act, .. } if *act != FusedAct::Identity
            );
            {
                // `mapped` edges compute an elementwise delta: a
                // non-first touch needs a temporary to add from.
                let mut twant = |rhs: usize| tneed.push(rhs as u32);
                let live = |t: usize| nodes[t].needs_grad;
                let mut edge = |t: usize, mapped: bool| {
                    if !live(t) {
                        // Pruned edge (the requires-grad rule): the
                        // flag slot is kept (so the positional
                        // indexing in `run_step` matches) but never
                        // read, and the node stays unreached.
                        flags.push(true);
                        return;
                    }
                    let fresh = !has[t];
                    has[t] = true;
                    flags.push(fresh);
                    if fresh {
                        touched.push(t);
                    }
                    if mapped && !fresh {
                        need_scratch = true;
                    }
                };
                match &nodes[i].op {
                    Op::Leaf(_) | Op::Detach(_) => continue,
                    Op::Add(a, b) => {
                        edge(a.0, false);
                        edge(b.0, false);
                    }
                    Op::Sub(a, b) => {
                        edge(a.0, false);
                        edge(b.0, true);
                    }
                    Op::Mul(a, b) => {
                        edge(a.0, true);
                        edge(b.0, true);
                    }
                    Op::Neg(a)
                    | Op::Scale(a, _)
                    | Op::Sigmoid(a)
                    | Op::Tanh(a)
                    | Op::Relu(a)
                    | Op::LeakyRelu(a, _)
                    | Op::Exp(a)
                    | Op::Ln(a)
                    | Op::Square(a)
                    | Op::Abs(a)
                    | Op::Softplus(a)
                    | Op::Recip(a) => edge(a.0, true),
                    Op::AddScalar(a, _) => edge(a.0, false),
                    Op::Matmul(a, b) => {
                        edge(a.0, false);
                        edge(b.0, false);
                        if live(a.0) {
                            twant(b.0);
                        }
                    }
                    Op::Sum(a)
                    | Op::Mean(a)
                    | Op::SliceCols(a, _, _)
                    | Op::SliceRows(a, _, _)
                    | Op::Im2Col(a, _)
                    | Op::RowMean(a)
                    | Op::Transpose(a) => edge(a.0, false),
                    Op::AddRowBroadcast(a, row) => {
                        edge(a.0, false);
                        edge(row.0, false);
                    }
                    Op::MulRowBroadcast(a, row) => {
                        edge(a.0, true);
                        edge(row.0, false);
                    }
                    Op::ConcatCols(a, b) => {
                        edge(a.0, false);
                        edge(b.0, false);
                    }
                    Op::ConcatRows(parts) => {
                        for p in parts {
                            edge(p.0, false);
                        }
                    }
                    Op::Affine { x, w, b, .. } => {
                        edge(x.0, false);
                        edge(w.0, false);
                        edge(b.0, false);
                        if live(x.0) {
                            twant(w.0);
                        }
                    }
                    Op::Affine2 { x, w, h, u, b, .. } => {
                        edge(x.0, false);
                        edge(w.0, false);
                        edge(h.0, false);
                        edge(u.0, false);
                        edge(b.0, false);
                        if live(x.0) {
                            twant(w.0);
                        }
                        if live(h.0) {
                            twant(u.0);
                        }
                    }
                }
            }
            let scratch_idx = if need_scratch {
                let shape = nodes[i].value.shape();
                let at = scratch_shapes.iter().position(|&s| s == shape);
                at.unwrap_or_else(|| {
                    scratch_shapes.push(shape);
                    scratch_shapes.len() - 1
                }) as u32
            } else {
                NONE
            };
            let acq_at = acquire.len() as u32;
            for t in touched.drain(..) {
                if !kept(t) {
                    slot[t] = bank.take(nodes[t].value.shape());
                    acquire.push((t as u32, slot[t]));
                }
            }
            // Node i's gradient is dead after its own step.
            let release = slot[i];
            if release != NONE {
                bank.give(nodes[i].value.shape(), release);
            }
            steps.push(BwdStep {
                node: i as u32,
                flags_at,
                scratch: scratch_idx,
                acq_at,
                acq_end: acquire.len() as u32,
                release,
            });
        }
        let scratch = scratch_shapes
            .into_iter()
            .map(|(r, c)| pool.take_uninit(r, c))
            .collect();
        let bank = bank
            .shapes
            .into_iter()
            .map(|(r, c)| Some(pool.take_uninit(r, c)))
            .collect();
        let kept = (0..nodes.len()).map(|i| has[i] && kept(i)).collect();
        tneed.sort_unstable();
        tneed.dedup();
        let tcache = tneed
            .into_iter()
            .map(|id| {
                let (r, c) = nodes[id as usize].value.shape();
                (id, pool.take_uninit(c, r))
            })
            .collect();
        BwdPlan {
            loss,
            steps,
            flags,
            kept,
            bank,
            acquire,
            loss_bank,
            scratch,
            tcache,
        }
    }

    /// Runs the compiled sweep. Mirrors the interpreter exactly: the
    /// same kernels, same edge order, with the `Option` slot dance
    /// replaced by precomputed first-touch flags.
    fn run(
        &mut self,
        nodes: &[Node],
        grads: &mut Vec<Option<Matrix>>,
        pool: &mut MatrixPool,
        dead: &[bool],
    ) {
        let n = nodes.len();
        if grads.len() < n {
            grads.resize_with(n, || None);
        }
        // Slot maintenance: a sweep ends with `Some` on exactly the
        // kept slots. Leftovers (a previous different loss's slots)
        // retire to the pool; kept slots get a buffer whose every
        // element the sweep overwrites before reading. A no-op in
        // steady state.
        for (i, slot) in grads.iter_mut().enumerate() {
            if self.kept.get(i).copied().unwrap_or(false) {
                if slot.is_none() {
                    let (r, c) = nodes[i].value.shape();
                    *slot = Some(pool.take_uninit(r, c));
                }
            } else if let Some(g) = slot.take() {
                pool.put(g);
            }
        }
        let BwdPlan {
            loss,
            steps,
            flags,
            bank,
            acquire,
            loss_bank,
            scratch,
            tcache,
            ..
        } = self;
        if *loss_bank != NONE {
            std::mem::swap(&mut grads[*loss], &mut bank[*loss_bank as usize]);
        }
        grads[*loss]
            .as_mut()
            .expect("loss slot materialized above")
            .fill(1.0);
        // Refresh the cached transposes: values (weights) change every
        // step, the set of cached nodes never does.
        for (id, buf) in tcache.iter_mut() {
            nodes[*id as usize].value.transpose_into(buf);
        }
        for step in steps.iter() {
            let i = step.node as usize;
            // First touches this step: install the bank buffers (the
            // slots are empty, the bank entries full).
            for &(t, k) in &acquire[step.acq_at as usize..step.acq_end as usize] {
                std::mem::swap(&mut grads[t as usize], &mut bank[k as usize]);
            }
            // Contributions to node i come only from consumers (larger
            // indices, already processed), so grads[i] is final here.
            let (lo, hi) = grads.split_at_mut(i);
            let g: &Matrix = hi[0].as_ref().expect("reached grads are materialized");
            let fa = step.flags_at as usize;
            let sbuf = scratch.get_mut(step.scratch as usize);
            run_step(nodes, lo, g, i, &flags[fa..], sbuf, tcache, dead);
            if step.release != NONE {
                std::mem::swap(&mut grads[i], &mut bank[step.release as usize]);
            }
        }
    }
}

/// Folds a borrowed delta into a slot: first touch copies (the
/// interpreter's `take_copy` install), later touches `add_assign`.
fn fold_ref(dst: &mut Matrix, fresh: bool, delta: &Matrix) {
    if fresh {
        dst.copy_from(delta);
    } else {
        dst.add_assign(delta);
    }
}

/// Prepares a `*_acc_into` target: first touch zeroes the slot (the
/// interpreter's `take_zeroed`), so accumulating kernels see the same
/// bits either way.
fn acc_slot(slot: &mut Option<Matrix>, fresh: bool) -> &mut Matrix {
    let dst = slot.as_mut().expect("reached grads are materialized");
    if fresh {
        dst.fill(0.0);
    }
    dst
}

/// `dst += a * (node rhs's value)ᵀ` as the plain matmul against the
/// sweep's cached transpose — bit-identical to
/// `a.matmul_t_acc_into(rhs, dst)` (equality documented on
/// [`Matrix::matmul_t`]).
fn mul_t_acc(tcache: &[(u32, Matrix)], a: &Matrix, rhs: usize, dst: &mut Matrix) {
    let t = &tcache
        .iter()
        .find(|(id, _)| *id as usize == rhs)
        .expect("live matmul_t RHS has a cached transpose")
        .1;
    a.matmul_acc_into(t, dst);
}

/// Executes one backward step for node `i`: `g` is its (final)
/// incoming gradient, `lo` the grad slots of all earlier nodes,
/// `flags` this step's first-touch flags, `sbuf` its scratch buffer,
/// `tcache` the plan's per-run cache of transposed `matmul_t`
/// right-hand sides.
///
/// Every arm replicates the interpreter arm for the same op — same
/// kernels, same operand order, with first-touch flags standing in
/// for the interpreter's empty-slot checks, and the same requires-grad
/// rule: `live` skips every edge into a node that needs no gradient,
/// exactly as compile pruned it. One sanctioned deviation,
/// bit-identical: `x.matmul_t_acc_into(w, ..)` runs through
/// [`mul_t_acc`].
#[allow(clippy::too_many_arguments)]
fn run_step(
    nodes: &[Node],
    lo: &mut [Option<Matrix>],
    g: &Matrix,
    i: usize,
    flags: &[bool],
    mut sbuf: Option<&mut Matrix>,
    tcache: &[(u32, Matrix)],
    dead: &[bool],
) {
    let live = |t: usize| nodes[t].needs_grad;
    // A mapped (elementwise-delta) edge: first touch computes straight
    // into the slot; later touches compute into scratch and add.
    macro_rules! mapped {
        ($t:expr, $fresh:expr, |$dst:ident| $compute:expr) => {{
            if $fresh {
                let $dst: &mut Matrix =
                    lo[$t].as_mut().expect("reached grads are materialized");
                $compute;
            } else {
                let $dst: &mut Matrix =
                    sbuf.as_deref_mut().expect("non-fresh mapped edge has scratch");
                $compute;
                lo[$t]
                    .as_mut()
                    .expect("reached grads are materialized")
                    .add_assign($dst);
            }
        }};
    }
    match &nodes[i].op {
        Op::Leaf(_) | Op::Detach(_) => unreachable!("no backward steps are compiled for these"),
        Op::Add(a, b) => {
            if live(a.0) {
                fold_ref(
                    lo[a.0].as_mut().expect("reached grads are materialized"),
                    flags[0],
                    g,
                );
            }
            if live(b.0) {
                fold_ref(
                    lo[b.0].as_mut().expect("reached grads are materialized"),
                    flags[1],
                    g,
                );
            }
        }
        Op::Sub(a, b) => {
            if live(a.0) {
                fold_ref(
                    lo[a.0].as_mut().expect("reached grads are materialized"),
                    flags[0],
                    g,
                );
            }
            if live(b.0) {
                mapped!(b.0, flags[1], |dst| g.map_into(|x| -x, dst));
            }
        }
        Op::Mul(a, b) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[b.0].value,
                    |gi, bi| gi * bi,
                    dst
                ));
            }
            if live(b.0) {
                mapped!(b.0, flags[1], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, ai| gi * ai,
                    dst
                ));
            }
        }
        Op::Neg(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.map_into(|x| -x, dst));
            }
        }
        Op::Scale(a, s) => {
            let s = *s;
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.map_into(|x| x * s, dst));
            }
        }
        Op::AddScalar(a, _) => {
            if live(a.0) {
                fold_ref(
                    lo[a.0].as_mut().expect("reached grads are materialized"),
                    flags[0],
                    g,
                );
            }
        }
        Op::Matmul(a, b) => {
            if live(a.0) {
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                mul_t_acc(tcache, g, b.0, ga);
            }
            if live(b.0) {
                let gb = acc_slot(&mut lo[b.0], flags[1]);
                nodes[a.0].value.t_matmul_acc_into(g, gb);
            }
        }
        Op::Sigmoid(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[i].value,
                    |gi, yi| gi * yi * (1.0 - yi),
                    dst
                ));
            }
        }
        Op::Tanh(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[i].value,
                    |gi, yi| gi * (1.0 - yi * yi),
                    dst
                ));
            }
        }
        Op::Relu(a) if !live(a.0) => {}
        Op::Relu(a) => {
            if dead[a.0] {
                // Fused pair: the pre-activation buffer is stale, but
                // `y = max(x, 0)` makes `y > 0` decide identically to
                // `x > 0` (x > 0 => y = x; x <= 0 => y = 0).
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[i].value,
                    |gi, yi| if yi > 0.0 { gi } else { 0.0 },
                    dst
                ));
            } else {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| if xi > 0.0 { gi } else { 0.0 },
                    dst
                ));
            }
        }
        Op::LeakyRelu(a, slope) => {
            let slope = *slope;
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| if xi >= 0.0 { gi } else { slope * gi },
                    dst
                ));
            }
        }
        Op::Exp(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[i].value,
                    |gi, yi| gi * yi,
                    dst
                ));
            }
        }
        Op::Ln(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| gi / xi,
                    dst
                ));
            }
        }
        Op::Square(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| 2.0 * xi * gi,
                    dst
                ));
            }
        }
        Op::Abs(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| gi * xi.signum() * (xi != 0.0) as u8 as f64,
                    dst
                ));
            }
        }
        Op::Softplus(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| gi / (1.0 + (-xi).exp()),
                    dst
                ));
            }
        }
        Op::Recip(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[i].value,
                    |gi, yi| -gi * yi * yi,
                    dst
                ));
            }
        }
        Op::Sum(a) => {
            if live(a.0) {
                let g00 = g[(0, 0)];
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                ga.map_inplace(|v| v + g00);
            }
        }
        Op::Mean(a) => {
            if live(a.0) {
                let (r, c) = nodes[a.0].value.shape();
                let gm = g[(0, 0)] / (r * c) as f64;
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                ga.map_inplace(|v| v + gm);
            }
        }
        Op::AddRowBroadcast(a, row) => {
            if live(a.0) {
                fold_ref(
                    lo[a.0].as_mut().expect("reached grads are materialized"),
                    flags[0],
                    g,
                );
            }
            if live(row.0) {
                let gr = acc_slot(&mut lo[row.0], flags[1]);
                g.col_sums_acc_into(gr);
            }
        }
        Op::MulRowBroadcast(a, row) => {
            let rv = &nodes[row.0].value;
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| {
                    for r in 0..g.rows() {
                        for (o, (&gi, &sv)) in dst
                            .row_mut(r)
                            .iter_mut()
                            .zip(g.row(r).iter().zip(rv.row(0)))
                        {
                            *o = gi * sv;
                        }
                    }
                });
            }
            if live(row.0) {
                let x = &nodes[a.0].value;
                let grow = acc_slot(&mut lo[row.0], flags[1]);
                for r in 0..g.rows() {
                    for (o, (&gi, &xi)) in grow
                        .row_mut(0)
                        .iter_mut()
                        .zip(g.row(r).iter().zip(x.row(r)))
                    {
                        *o += gi * xi;
                    }
                }
            }
        }
        Op::ConcatCols(a, b) => {
            let ca = nodes[a.0].value.cols();
            if live(a.0) {
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                for r in 0..g.rows() {
                    for (o, &v) in ga.row_mut(r).iter_mut().zip(&g.row(r)[..ca]) {
                        *o += v;
                    }
                }
            }
            if live(b.0) {
                let gb = acc_slot(&mut lo[b.0], flags[1]);
                for r in 0..g.rows() {
                    for (o, &v) in gb.row_mut(r).iter_mut().zip(&g.row(r)[ca..]) {
                        *o += v;
                    }
                }
            }
        }
        Op::SliceCols(a, start, end) => {
            if live(a.0) {
                let (start, end) = (*start, *end);
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                for r in 0..g.rows() {
                    for (o, &v) in ga.row_mut(r)[start..end].iter_mut().zip(g.row(r)) {
                        *o += v;
                    }
                }
            }
        }
        Op::ConcatRows(parts) => {
            let mut offset = 0;
            for (k, p) in parts.iter().enumerate() {
                let rows = nodes[p.0].value.rows();
                if live(p.0) {
                    let gp = acc_slot(&mut lo[p.0], flags[k]);
                    for r in 0..rows {
                        for (o, &v) in gp.row_mut(r).iter_mut().zip(g.row(offset + r)) {
                            *o += v;
                        }
                    }
                }
                offset += rows;
            }
        }
        Op::SliceRows(a, start, _end) => {
            if live(a.0) {
                let start = *start;
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                for r in 0..g.rows() {
                    for (o, &v) in ga.row_mut(start + r).iter_mut().zip(g.row(r)) {
                        *o += v;
                    }
                }
            }
        }
        Op::Im2Col(a, kernel) if !live(a.0) => {
            let _ = kernel;
        }
        Op::Im2Col(a, kernel) => {
            let kernel = *kernel;
            let (t_len, c) = nodes[a.0].value.shape();
            let half = kernel / 2;
            let ga = acc_slot(&mut lo[a.0], flags[0]);
            for row in 0..t_len {
                for k in 0..kernel {
                    let src = row as isize + k as isize - half as isize;
                    if src < 0 || src >= t_len as isize {
                        continue;
                    }
                    let gs = &g.row(row)[k * c..(k + 1) * c];
                    for (o, &v) in ga.row_mut(src as usize).iter_mut().zip(gs) {
                        *o += v;
                    }
                }
            }
        }
        Op::RowMean(a) => {
            if live(a.0) {
                let (r, c) = nodes[a.0].value.shape();
                let inv = 1.0 / c as f64;
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                for row in 0..r {
                    let gv = g[(row, 0)] * inv;
                    for o in ga.row_mut(row) {
                        *o += gv;
                    }
                }
            }
        }
        Op::Transpose(a) => {
            if live(a.0) {
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                for r in 0..g.rows() {
                    for c in 0..g.cols() {
                        ga[(c, r)] += g[(r, c)];
                    }
                }
            }
        }
        Op::Affine { x, w, b, act } => {
            let dz: &Matrix = if *act == FusedAct::Identity {
                g
            } else {
                let d = sbuf.as_deref_mut().expect("activated affine has scratch");
                act.dz_into(g, &nodes[i].value, d);
                d
            };
            if live(x.0) {
                let gx = acc_slot(&mut lo[x.0], flags[0]);
                mul_t_acc(tcache, dz, w.0, gx);
            }
            if live(w.0) {
                let gw = acc_slot(&mut lo[w.0], flags[1]);
                nodes[x.0].value.t_matmul_acc_into(dz, gw);
            }
            if live(b.0) {
                let gb = acc_slot(&mut lo[b.0], flags[2]);
                dz.col_sums_acc_into(gb);
            }
        }
        Op::Affine2 { x, w, h, u, b, act } => {
            let dz: &Matrix = if *act == FusedAct::Identity {
                g
            } else {
                let d = sbuf.expect("activated affine2 has scratch");
                act.dz_into(g, &nodes[i].value, d);
                d
            };
            if live(x.0) {
                let gx = acc_slot(&mut lo[x.0], flags[0]);
                mul_t_acc(tcache, dz, w.0, gx);
            }
            if live(w.0) {
                let gw = acc_slot(&mut lo[w.0], flags[1]);
                nodes[x.0].value.t_matmul_acc_into(dz, gw);
            }
            if live(h.0) {
                let gh = acc_slot(&mut lo[h.0], flags[2]);
                mul_t_acc(tcache, dz, u.0, gh);
            }
            if live(u.0) {
                let gu = acc_slot(&mut lo[u.0], flags[3]);
                nodes[h.0].value.t_matmul_acc_into(dz, gu);
            }
            if live(b.0) {
                let gb = acc_slot(&mut lo[b.0], flags[4]);
                dz.col_sums_acc_into(gb);
            }
        }
    }
}
