"""Constraint-guided reordering of a draft procedure.

Causal rules are mapped onto concrete steps as soft precedence
constraints; a permutation local search, warm-started at the draft,
minimizes a four-term penalty: step displacement from the draft, broken
draft adjacencies, cluster-order inversions, and precedence violations.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import asdict, dataclass, field, fields

from .errors import ProcforgeError, ValidationError, distinct
from .metrics import RAW_BINARY, RAW_GAP
from .rules import INITIAL_STATE, CausalRule
from .templates import BoundAction, bound_action_from_parts


@dataclass(frozen=True)
class Step:
    id: str
    action: BoundAction | None = None  # None marks an unmapped step
    text: str = ""
    cluster: str | None = None

    @property
    def action_key(self) -> str | None:
        return self.action.key if self.action is not None else None


@dataclass(frozen=True)
class Procedure:
    steps: tuple[Step, ...]

    def __post_init__(self):
        distinct((s.id for s in self.steps), "step ids in procedure")

    @property
    def step_ids(self) -> list[str]:
        return [s.id for s in self.steps]

    def get_step(self, step_id: str) -> Step:
        for s in self.steps:
            if s.id == step_id:
                return s
        raise KeyError(step_id)

    def reordered(self, order: list[str]) -> "Procedure":
        by_id = {s.id: s for s in self.steps}
        return Procedure(steps=tuple(by_id[i] for i in order))


@dataclass(frozen=True)
class PrecedenceConstraint:
    predecessor: str
    successor: str
    origin: str = "manual"

    def __post_init__(self):
        if self.predecessor == self.successor:
            raise ValidationError("constraint predecessor and successor must differ")


@dataclass(frozen=True)
class ClusterConstraint:
    earlier: str
    later: str

    def __post_init__(self):
        if self.earlier == self.later:
            raise ValidationError("cluster constraint labels must differ")


@dataclass(frozen=True)
class RepairWeights:
    lambda_pos: float = 0.5
    lambda_edge: float = 1.0
    lambda_cluster: float = 0.0
    lambda_raw: float = 2.0

    def __post_init__(self):
        values = (self.lambda_pos, self.lambda_edge, self.lambda_cluster, self.lambda_raw)
        for f, v in zip(fields(self), values):
            if isinstance(v, bool):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("weights must be finite")
        if any(v < 0 for v in values):
            raise ValueError("weights must be non-negative")
        if not any(v > 0 for v in values):
            raise ValueError("at least one weight must be positive")


@dataclass(frozen=True)
class SearchParams:
    restarts: int = 4
    max_stale_iters: int = 10

    def __post_init__(self):
        counts = (self.restarts, self.max_stale_iters)
        if not all(type(v) is int for v in counts) or self.restarts < 1 or self.max_stale_iters < 0:
            raise ValueError(f"search needs integers restarts >= 1 and max_stale_iters >= 0, got {counts}")


@dataclass(frozen=True)
class CostBreakdown:
    position: float
    edge: float
    cluster: float
    raw: float
    total: float


@dataclass(frozen=True)
class RepairResult:
    order: tuple[str, ...]
    cost: CostBreakdown
    trace: dict = field(default_factory=dict)


# ── rule → constraint mapping ─────────────────────────────────────────────


@dataclass(frozen=True)
class MappingResult:
    constraints: tuple[PrecedenceConstraint, ...]
    unmatched: tuple[CausalRule, ...]
    dropped: tuple[PrecedenceConstraint, ...] = ()


def map_rules_to_constraints(proc: Procedure, rules: list[CausalRule]) -> MappingResult:
    """Instantiate causal rules as step-level precedence constraints.

    For each consumer step, the nearest preceding producer step (by draft
    order) becomes the predecessor; when no producer precedes, the
    earliest producer step is used, unless the rule also lists
    ``initial_state`` — then the condition can hold from the start and
    the step gets no constraint.  Rules that match no steps are returned
    as unmatched.

    Toggle-style rule pairs can emit a contradictory 2-cycle on a
    scrambled draft (the corrupted order makes a restore pattern look
    intentional).  When both directions of a step pair are emitted, the
    edge whose rule can be satisfied by the initial state is dropped: the
    other side's condition can only come from its producer.
    """
    positions = {s.id: i for i, s in enumerate(proc.steps)}
    by_action: dict[str, list[Step]] = {}
    for s in proc.steps:
        if s.action_key is not None:
            by_action.setdefault(s.action_key, []).append(s)

    emitted: list[tuple[PrecedenceConstraint, bool]] = []  # (constraint, rule has initial_state)
    unmatched: list[CausalRule] = []
    for rule in rules:
        consumers = by_action.get(rule.action, [])
        producer_keys = [p for p in rule.producers if p != INITIAL_STATE]
        has_initial = INITIAL_STATE in rule.producers
        if not producer_keys and has_initial:
            continue  # condition holds initially; nothing to order
        producer_steps = [s for key in producer_keys for s in by_action.get(key, [])]
        if not consumers or not producer_steps:
            unmatched.append(rule)
            continue
        origin = f"{rule.action}<-{rule.variable}={rule.value}"
        for consumer in consumers:
            candidates = [s for s in producer_steps if s.id != consumer.id]
            if not candidates:
                continue
            preceding = [s for s in candidates if positions[s.id] < positions[consumer.id]]
            if preceding:
                pred = max(preceding, key=lambda s: positions[s.id])
            elif has_initial:
                continue  # first consumption is covered by the initial state
            else:
                pred = min(candidates, key=lambda s: positions[s.id])
            emitted.append(
                (PrecedenceConstraint(predecessor=pred.id, successor=consumer.id, origin=origin), has_initial)
            )

    pairs = {(c.predecessor, c.successor) for c, _ in emitted}
    constraints: list[PrecedenceConstraint] = []
    dropped: list[PrecedenceConstraint] = []
    for constraint, has_initial in emitted:
        reverse = (constraint.successor, constraint.predecessor)
        if reverse in pairs and has_initial:
            dropped.append(constraint)
        else:
            constraints.append(constraint)
    return MappingResult(
        constraints=tuple(constraints), unmatched=tuple(unmatched), dropped=tuple(dropped)
    )


# ── objective ─────────────────────────────────────────────────────────────


class _Instance:
    """Index-space view of one repair problem, for fast cost evaluation."""

    def __init__(self, draft: Procedure, constraints, clusters, weights: RepairWeights, raw_mode: str):
        if raw_mode not in (RAW_BINARY, RAW_GAP):
            raise ValueError(f"unknown raw penalty mode {raw_mode!r}")
        self.weights = weights
        self.raw_mode = raw_mode
        self.ids = [s.id for s in draft.steps]
        self.index = {sid: i for i, sid in enumerate(self.ids)}
        self.n = len(self.ids)
        missing = [
            c for c in constraints if c.predecessor not in self.index or c.successor not in self.index
        ]
        if missing:
            raise ValidationError(f"constraint references unknown step ids: {missing[0]}")
        self.constraints = [(self.index[c.predecessor], self.index[c.successor]) for c in constraints]
        self.succs: list[list[int]] = [[] for _ in range(self.n)]
        self.preds: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.constraints:
            self.succs[a].append(b)
            self.preds[b].append(a)
        # Label 0 is every step outside the constrained clusters;
        # cluster_counts[a][b] counts the constraints "a before b".
        names = sorted({lab for cc in clusters for lab in (cc.earlier, cc.later)})
        labels = {lab: k for k, lab in enumerate(names, start=1)}
        self.cluster_of = [labels.get(s.cluster, 0) for s in draft.steps]
        self.cluster_counts = [[0] * (len(labels) + 1) for _ in range(len(labels) + 1)]
        for cc in clusters:
            self.cluster_counts[labels[cc.earlier]][labels[cc.later]] += 1
        # cluster_flip[a][b]: change of cluster inversions when a step of
        # label a moves right past one of label b
        self.cluster_flip = [
            [ab - ba for ab, ba in zip(row, col)] for row, col in zip(self.cluster_counts, zip(*self.cluster_counts))
        ]
        # flip[a] == 0 on the diagonal, so flip_min[a] <= 0 <= flip_max[a]
        self.flip_min = [min(flip) for flip in self.cluster_flip]
        self.flip_max = [max(flip) for flip in self.cluster_flip]

    def order_to_indices(self, order: list[str]) -> list[int]:
        if sorted(order) != sorted(self.ids):
            raise ValidationError("order is not a permutation of the draft's step ids")
        return [self.index[sid] for sid in order]

    def cost(self, perm: list[int]) -> CostBreakdown:
        pos = [0] * self.n
        for p, idx in enumerate(perm):
            pos[idx] = p
        position = float(sum(abs(pos[i] - i) for i in range(self.n)))
        edge = float(sum(1 for i in range(self.n - 1) if pos[i + 1] != pos[i] + 1))
        # A step inverts, once per constraint, each earlier-placed step
        # whose label should come after its own.  Without cluster
        # constraints every step has label 0 and nothing inverts.
        inversions = 0
        if len(self.cluster_counts) > 1:
            placed = [0] * len(self.cluster_counts)  # steps placed so far, per label
            for idx in perm:
                lab = self.cluster_of[idx]
                inversions += sum(c * k for c, k in zip(self.cluster_counts[lab], placed))
                placed[lab] += 1
        cluster = float(inversions)
        raw = 0.0
        for pred, succ in self.constraints:
            deficit = pos[pred] - pos[succ]
            if deficit >= 0:
                raw += 1.0 if self.raw_mode == RAW_BINARY else float(deficit)
        w = self.weights
        total = w.lambda_pos * position + w.lambda_edge * edge + w.lambda_cluster * cluster + w.lambda_raw * raw
        return CostBreakdown(position=position, edge=edge, cluster=cluster, raw=raw, total=total)

    def displacement(self, perm: list[int]) -> int:
        return sum(abs(p - idx) for p, idx in enumerate(perm))


def objective_cost(
    order: list[str],
    draft: Procedure,
    constraints=(),
    clusters=(),
    weights: RepairWeights = RepairWeights(),
    raw_mode: str = RAW_BINARY,
) -> CostBreakdown:
    """Evaluate the four-term objective for one permutation of the draft."""
    inst = _Instance(draft, constraints, clusters, weights, raw_mode)
    return inst.cost(inst.order_to_indices(order))


# ── search ────────────────────────────────────────────────────────────────


def derive_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).hexdigest()
    return int(digest[:16], 16)


def _reinsert(perm: list[int], i: int, j: int) -> list[int]:
    out = list(perm)
    moved = out.pop(i)
    out.insert(j, moved)
    return out


def _scan(inst: _Instance, perm: list[int]):
    """Prepare one scan of perm's reinsertions: ``(right, left, sweep)``.

    ``sweep(i, right, left, d_total)`` sets ``d_total[j]`` to the exact
    change of the total cost when the element at position i is
    reinserted at position j, for every j > i if ``right`` and every
    j < i if ``left``: the two half-rows of row i.  It leaves the other
    entries as they are.  ``right[i]`` lies at or below every move of row
    i with j > i, and ``left[i]`` at or below every one with j < i; both
    are inf where the half-row is empty.

    A half-row sweeps outward from i.  A step moves the element x over
    one element e, which shifts one place, so every running term changes
    only by what involves e: its displacement, its cluster order against
    x, and the precedence constraints incident to x or e.  Broken
    adjacencies change only at the removal seam and the insertion point.

    Moving x = perm[i] to j, each bound adds lower bounds on four parts
    of the cost change:

    - every step's displacement, the gap-mode penalties that crossing a
      step books through its net count, and the kept adjacency that the
      insertion breaks.  Each is a prefix sum over the crossed positions
      (a suffix sum moving left), so their joint minimum over j splits at
      j = x, where ``|j - x|`` turns: beyond x it is one entry of a
      suffix (prefix) minimum built once per scan, and between i and x it
      is a slice minimum;
    - the rest of x's own constraints: a violated one can improve only
      while x moves toward its other end, and one that holds cannot get
      cheaper;
    - the other adjacencies: the removal seam, and the draft neighbours
      x - 1 and x + 1 where they stand on the side x moves to;
    - clusters: the most negative inversion change of one crossed step,
      times the number of steps the half-row can cross.

    The preparation, bounds included, costs O(n + m) plus the slices
    between i and x, which add the permutation's displacement; sweeping
    every row costs O(n² + m) for n steps and m constraints.
    """
    n = inst.n
    w = inst.weights
    lambda_pos, lambda_edge, lambda_cluster, lambda_raw = w.lambda_pos, w.lambda_edge, w.lambda_cluster, w.lambda_raw
    gap_mode = inst.raw_mode == RAW_GAP
    pos = [0] * n
    for p, e in enumerate(perm):
        pos[e] = p
    ext = perm + [-2]  # ext[n] == ext[-1] == -2: a sentinel no step is adjacent to
    kept = [ext[p] + 1 == ext[p + 1] for p in range(n)]
    # seam[i]: change of kept adjacencies at the gap that removing perm[i] closes
    seam = [
        (ext[i - 1] + 1 == ext[i + 1]) - (ext[i - 1] + 1 == x) - (x + 1 == ext[i + 1]) for i, x in enumerate(perm)
    ]
    # Gap mode: a violated constraint without x changes by one when one of
    # its endpoints shifts; net[e] counts e's violated constraints as
    # predecessor minus those as successor.  Crossing e thus changes the
    # penalties by -net[e] moving right and by +net[e] moving left.  That
    # books part of the change of x's own constraints too; relief_right[x]
    # and relief_left[x] bound the rest.  A violated (a, b) has a to the
    # right of b.  Moving toward each other, a gap-mode penalty falls at
    # most from its gap to 0, of which the crossed end's net count books 1
    # (a binary one falls by 1); moving apart, the gap grows by at least 1
    # (a binary one stays at 1).
    net = [0] * n
    relief_right = [0] * n
    relief_left = [0] * n
    for a, b in inst.constraints:
        gap = pos[a] - pos[b]
        if gap > 0:
            if gap_mode:
                net[a] += 1
                net[b] -= 1
                relief_right[b] -= gap - 1
                relief_left[a] -= gap - 1
                relief_right[a] += 1
                relief_left[b] += 1
            else:
                relief_right[b] -= 1
                relief_left[a] -= 1
    # Moving x right from i to j changes the first part by f(j) - f(i) +
    # broken[i], with f(j) = lambda_pos * (|j - x| + S[j]) - lambda_raw *
    # N[j] + broken[j].  S sums the crossed steps' moves away from (+1) or
    # toward (-1) their draft index, N sums their net counts, and broken[j]
    # is what breaking the kept adjacency after position j costs
    # (broken[-1] == 0).  f(j) is up_right[j] - lambda_pos * x for j >= x
    # and down_right[j] + lambda_pos * x for j <= x.  Moving left mirrors
    # this with suffix sums.
    broken = [lambda_edge * k for k in kept]
    up_right, down_right, up_left, down_left = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    run_pos = run_net = 0
    for k, e in enumerate(perm):
        run_pos += 1 if e >= k else -1
        run_net += net[e]
        f = lambda_pos * run_pos - lambda_raw * run_net + broken[k]
        up_right[k] = f + lambda_pos * k
        down_right[k] = f - lambda_pos * k
    run_pos = run_net = 0
    for k in range(n - 1, -1, -1):
        e = perm[k]
        run_pos += 1 if e <= k else -1
        run_net += net[e]
        f = lambda_pos * run_pos + lambda_raw * run_net + broken[k - 1]
        up_left[k] = f + lambda_pos * k
        down_left[k] = f - lambda_pos * k
    up_right_min = list(itertools.accumulate(reversed(up_right), min))[::-1]  # [k] == min(up_right[k:])
    down_left_min = list(itertools.accumulate(down_left, min))  # [k] == min(down_left[: k + 1])
    label, flip_min, flip_max = inst.cluster_of, inst.flip_min, inst.flip_max
    inf = float("inf")
    right, left = [inf] * n, [inf] * n
    for i, x in enumerate(perm):
        below = pos[x - 1] if x > 0 else i  # i stands for a draft neighbour x lacks
        above = pos[x + 1] if x < n - 1 else i
        turn = lambda_pos * x
        if i < n - 1:
            reach = up_right_min[max(i + 1, x)] - turn
            if x > i + 1:
                reach = min(reach, min(down_right[i + 1 : x + 1]) + turn)
            here = (up_right[i] - turn if i >= x else down_right[i] + turn) - broken[i]
            right[i] = (
                reach
                - here
                + lambda_raw * relief_right[x]
                - lambda_edge * (seam[i] + (below > i) + (above > i + 1))
                + lambda_cluster * (n - 1 - i) * flip_min[label[x]]
            )
        if i > 0:
            reach = down_left_min[min(i - 1, x)] + turn
            if x < i - 1:
                reach = min(reach, min(up_left[x:i]) - turn)
            here = (up_left[i] - turn if i >= x else down_left[i] + turn) - broken[i - 1]
            left[i] = (
                reach
                - here
                + lambda_raw * relief_left[x]
                - lambda_edge * (seam[i] + (above < i) + (below < i - 1))
                - lambda_cluster * i * flip_max[label[x]]
            )

    def sweep(i: int, right: bool, left: bool, d_total: list[float]) -> None:
        x = perm[i]
        # rel[e]: constraints between x and e, as (x, e) + (e, x) in gap
        # mode and (x, e) - (e, x) in binary mode
        rel = [0] * n
        for y in inst.succs[x]:
            rel[y] += 1
        for y in inst.preds[x]:
            rel[y] += 1 if gap_mode else -1
        # Gap mode: how much x's own violated gaps grow per step as x starts
        # moving right (successors before x lengthen, predecessors after x
        # shorten); each crossed step then adds its rel entry.
        growing = sum(pos[y] < i for y in inst.succs[x]) - sum(pos[y] > i for y in inst.preds[x])
        # flip[b]: change of cluster inversions when x moves right past a step of label b
        flip = inst.cluster_flip[label[x]]
        seam_i = seam[i]
        base = abs(i - x)

        if right:
            run_pos = run_cluster = run_raw = 0
            active = growing
            for j in range(i + 1, n):
                e = ext[j]
                run_pos += 1 if e >= j else -1
                run_cluster += flip[label[e]]
                if gap_mode:
                    active += rel[e]
                    run_raw += active - net[e]
                else:
                    run_raw += rel[e]
                dp = run_pos + abs(j - x) - base
                d_edge = kept[j] - seam_i - (e + 1 == x) - (x + 1 == ext[j + 1])
                d_total[j] = lambda_pos * dp + lambda_edge * d_edge + lambda_cluster * run_cluster + lambda_raw * run_raw

        if left:
            run_pos = run_cluster = run_raw = 0
            active = -growing
            for j in range(i - 1, -1, -1):
                e = ext[j]
                run_pos += 1 if e <= j else -1
                run_cluster -= flip[label[e]]
                if gap_mode:
                    active += rel[e]
                    run_raw += active + net[e]
                else:
                    run_raw -= rel[e]
                dp = run_pos + abs(j - x) - base
                d_edge = kept[j - 1] - seam_i - (x + 1 == e) - (ext[j - 1] + 1 == x)
                d_total[j] = lambda_pos * dp + lambda_edge * d_edge + lambda_cluster * run_cluster + lambda_raw * run_raw

    return right, left, sweep


def _best_move(inst: _Instance, perm: list[int]):
    """The steepest reinsertion from perm as ``(delta, i, j)``, or None
    when perm has fewer than two steps.

    ``delta`` is the smallest change of the total cost, and every move
    within 1e-12 of it ties.  Ties break toward minimum displacement from
    the draft, then the lexicographically smallest moved permutation,
    then the smallest (i, j), so the move depends only on the set of
    moves, not on the order in which they are compared.  One call of
    :func:`_scan` prepares the scan and bounds each half-row.  The
    half-rows are swept in ascending bound order until a bound lies more
    than a margin above the smallest move swept so far; the rest are
    skipped.

    Why this is exact: the margin, 1e-9 times the largest of 1 and the
    weights, covers the rounding of bound and sweep, so every half-row
    whose bound lies within the margin of the scan's minimum is swept,
    and with it every move of the tie band.
    """
    n = inst.n
    if n < 2:
        return None
    w = inst.weights
    slack = 1e-9 * max(1.0, w.lambda_pos, w.lambda_edge, w.lambda_cluster, w.lambda_raw)
    right_floor, left_floor, sweep = _scan(inst, perm)
    floors = right_floor + left_floor  # the right half-rows, then the left ones
    swept: list[tuple[int, list[float]]] = []
    best_delta = float("inf")
    for k in sorted(range(2 * n), key=floors.__getitem__):
        if floors[k] > best_delta + slack:
            break
        i = k % n
        row = [float("inf")] * n
        sweep(i, k < n, k >= n, row)
        swept.append((i, row))
        best_delta = min(best_delta, min(row))
    ties = [(i, j) for i, row in swept for j, d_total in enumerate(row) if d_total <= best_delta + 1e-12]

    def rank(move):
        moved = _reinsert(perm, *move)
        return inst.displacement(moved), moved, move

    i, j = min(ties, key=rank)
    return best_delta, i, j


def _descend(
    inst: _Instance, start: list[int], max_stale: int, moves: dict[tuple[int, ...], tuple[float, int, int] | None]
):
    """Steepest descent over single-step reinsertions (which subsume all
    adjacent swaps), tolerating equal-cost moves for a bounded number of
    stale iterations.  Returns ``(best, iterations)``: best is the
    permutation reached by the last move whose delta lies below -1e-12,
    or start when none does.  Each move comes from :func:`_best_move`,
    which scans a permutation: :func:`_scan` prepares it and its half-row
    bounds once, then it sweeps, lowest bound first, only the half-rows
    that could hold the best move or a tie with it, about 4.5% of them on
    the benchmark's ``all`` + ``tune``.

    ``moves`` maps each permutation already scanned to its best move, and
    is shared by every descent of one :func:`repair` call: the move
    depends only on the permutation, so a plateau walk that returns to a
    permutation, or a restart that reaches one an earlier restart
    scanned, costs O(n) for the reinsertion, not a scan.  The scan's
    deltas alone decide the walk; no cost is recomputed.
    """
    current = list(start)
    best = current
    stale = 0
    iterations = 0
    max_iterations = 200 * max(inst.n, 1)
    while iterations < max_iterations:
        iterations += 1
        key = tuple(current)
        if key in moves:
            move = moves[key]
        else:
            move = moves[key] = _best_move(inst, current)
        if move is None:
            break
        best_delta, i, j = move
        if best_delta < -1e-12:
            stale = 0
        elif best_delta <= 1e-12 and stale < max_stale:
            stale += 1
        else:
            break
        current = _reinsert(current, i, j)
        if best_delta < -1e-12:
            best = current
    return best, iterations


def repair(
    draft: Procedure,
    constraints=(),
    clusters=(),
    weights: RepairWeights = RepairWeights(),
    search: SearchParams = SearchParams(),
    seed: int = 0,
    raw_mode: str = RAW_BINARY,
) -> RepairResult:
    """Local-search repair warm-started at the draft ordering.

    The first restart begins at the draft, so the result never costs more
    than the draft does; later restarts begin at seeded shuffles.  All
    restarts share one move table, so each distinct permutation the call
    visits is scanned once; a revisit costs O(n) for the reinsertion.
    Each descent's result is costed once, to compare the restarts.  The
    table lives only for the call.  Contradictory constraints are not an error:
    violations are soft penalties and the search simply minimizes them.
    Deterministic given the seed.
    """
    inst = _Instance(draft, constraints, clusters, weights, raw_mode)
    draft_perm = list(range(inst.n))
    moves: dict[tuple[int, ...], tuple[float, int, int] | None] = {}
    best_perm = None
    best_cost = None
    total_iterations = 0
    for r in range(search.restarts):
        if r == 0:
            start = draft_perm
        else:
            rng = random.Random(derive_seed(seed, f"restart:{r}"))
            start = list(draft_perm)
            rng.shuffle(start)
        perm, iters = _descend(inst, start, search.max_stale_iters, moves)
        total_iterations += iters
        cost = inst.cost(perm).total
        if best_cost is None or cost < best_cost - 1e-12:
            best_perm, best_cost = perm, cost
    order = tuple(inst.ids[i] for i in best_perm)
    breakdown = inst.cost(best_perm)
    trace = {
        "restarts": search.restarts,
        "iterations": total_iterations,
        "seed": seed,
        "draft_cost": inst.cost(draft_perm).total,
        "method": "local_search",
    }
    return RepairResult(order=order, cost=breakdown, trace=trace)


def brute_force_repair(
    draft: Procedure,
    constraints=(),
    clusters=(),
    weights: RepairWeights = RepairWeights(),
    limit: int = 8,
    raw_mode: str = RAW_BINARY,
) -> RepairResult:
    """Exhaustive minimum over all permutations (independent optimizer
    oracle).  Ties break to the lexicographically first permutation in
    draft-index space.
    """
    inst = _Instance(draft, constraints, clusters, weights, raw_mode)
    if inst.n > limit:
        raise ProcforgeError(f"brute force refuses {inst.n} steps (limit {limit})")
    best_perm = None
    best_total = None
    for cand in itertools.permutations(range(inst.n)):
        total = inst.cost(list(cand)).total
        if best_total is None or total < best_total - 1e-12:
            best_total = total
            best_perm = cand
    order = tuple(inst.ids[i] for i in best_perm)
    return RepairResult(
        order=order,
        cost=inst.cost(list(best_perm)),
        trace={"method": "brute_force", "evaluated": math.factorial(inst.n)},
    )


# ── serialization ─────────────────────────────────────────────────────────


def procedure_to_dict(proc: Procedure) -> dict:
    steps = []
    for s in proc.steps:
        item: dict = {"id": s.id, "text": s.text}
        if s.action is None:
            item["action"] = None
        else:
            item["action"] = s.action.id
            item["params"] = dict(s.action.params)
        if s.cluster is not None:
            item["cluster"] = s.cluster
        steps.append(item)
    return {"steps": steps}


def procedure_from_dict(doc: dict) -> Procedure:
    steps = []
    for item in doc["steps"]:
        action = None
        if item.get("action") is not None:
            action = bound_action_from_parts(item["action"], item.get("params", {}))
        steps.append(
            Step(
                id=str(item["id"]),
                action=action,
                text=str(item.get("text", "")),
                cluster=item.get("cluster"),
            )
        )
    return Procedure(steps=tuple(steps))


def constraints_to_dict(constraints: list[PrecedenceConstraint], clusters: list[ClusterConstraint]) -> dict:
    return {"raw": [asdict(c) for c in constraints], "cluster": [asdict(c) for c in clusters]}


def constraints_from_dict(doc: dict) -> tuple[tuple[PrecedenceConstraint, ...], tuple[ClusterConstraint, ...]]:
    raw = [PrecedenceConstraint(**item) for item in doc.get("raw", [])]
    clusters = [ClusterConstraint(**item) for item in doc.get("cluster", [])]
    return distinct(raw, "raw constraints"), distinct(clusters, "cluster constraints")
