import importlib
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from procforge import metrics
from procforge.errors import ProcforgeError, ValidationError
from procforge.metrics import RAW_BINARY, RAW_GAP
from procforge.repair import (
    ClusterConstraint,
    PrecedenceConstraint,
    Procedure,
    RepairWeights,
    SearchParams,
    Step,
    brute_force_repair,
    map_rules_to_constraints,
    objective_cost,
    procedure_from_dict,
    procedure_to_dict,
    repair,
)
from procforge.repair import (
    RepairResult,
    _best_move,
    _instance,
    _reinsert,
    _scan,
    derive_seed,
)
from procforge.rules import INITIAL_STATE, CausalRule
from procforge.templates import bound_action_from_parts

repair_module = importlib.import_module("procforge.repair")  # the package re-exports a `repair` function


def proc(*ids, clusters=None, actions=None):
    steps = []
    for i, sid in enumerate(ids):
        action = None
        if actions and actions[i]:
            action = bound_action_from_parts(actions[i], {})
        steps.append(Step(id=sid, action=action, cluster=(clusters or {}).get(sid)))
    return Procedure(steps=tuple(steps))


def random_instance(rng, n):
    """A random draft with a few random constraints and weights."""
    ids = [f"s{i}" for i in range(n)]
    draft = proc(*ids)
    constraints = []
    for _ in range(rng.randint(0, max(1, n // 2))):
        a, b = rng.sample(ids, 2)
        constraints.append(PrecedenceConstraint(predecessor=a, successor=b, origin="manual"))
    weights = RepairWeights(
        lambda_pos=rng.choice([0.0, 0.5, 1.0]),
        lambda_edge=rng.choice([0.5, 1.0]),
        lambda_cluster=0.0,
        lambda_raw=rng.choice([1.0, 2.0, 4.0]),
    )
    return draft, constraints, weights


# ── objective ─────────────────────────────────────────────────────────────


def test_identity_permutation_costs_only_violations():
    draft = proc("a", "b", "c", "d")
    constraints = [PrecedenceConstraint("d", "a")]  # violated by the draft itself
    cost = objective_cost(["a", "b", "c", "d"], draft, constraints, (), RepairWeights(1, 1, 1, 2))
    assert cost.position == 0.0
    assert cost.edge == 0.0
    assert cost.raw == 1.0
    assert cost.total == 2.0


def test_two_step_swap_costs():
    draft = proc("a", "b")
    cost = objective_cost(["b", "a"], draft, (), (), RepairWeights(1, 1, 0, 1))
    assert cost.position == 2.0  # both steps moved one place
    assert cost.edge == 1.0  # the single draft adjacency broke
    assert cost.total == 3.0


def test_hand_computed_four_step_fixture():
    # draft a b c d; candidate c a b d; constraint (d before b) violated;
    # weights (0.5, 1, 0, 2).
    draft = proc("a", "b", "c", "d")
    cand = ["c", "a", "b", "d"]
    constraints = [PrecedenceConstraint("d", "b")]
    w = RepairWeights(0.5, 1.0, 0.0, 2.0)
    cost = objective_cost(cand, draft, constraints, (), w)
    # displacements: a 1, b 1, c 2, d 0 -> 4
    assert cost.position == 4.0
    # draft adjacencies (a,b) kept, (b,c) broken, (c,d) broken -> 2
    assert cost.edge == 2.0
    # d sits after b -> violation
    assert cost.raw == 1.0
    assert cost.total == 0.5 * 4 + 1.0 * 2 + 2.0 * 1


def test_gap_mode_counts_positional_deficit():
    draft = proc("a", "b", "c", "d")
    cand = ["d", "b", "c", "a"]
    constraints = [PrecedenceConstraint("a", "d")]
    binary = objective_cost(cand, draft, constraints, (), RepairWeights(0, 0, 0, 1))
    gap = objective_cost(cand, draft, constraints, (), RepairWeights(0, 0, 0, 1), raw_mode=RAW_GAP)
    assert binary.raw == 1.0
    assert gap.raw == 3.0


def test_constraints_may_be_any_iterable():
    draft = proc("a", "b", "c")
    constraints = [PrecedenceConstraint("c", "a")]
    clusters = [ClusterConstraint("wash", "dry")]
    want = objective_cost(["a", "b", "c"], draft, constraints, clusters)
    assert want.raw == 1.0
    assert objective_cost(["a", "b", "c"], draft, iter(constraints), iter(clusters)) == want


def test_unknown_raw_mode_is_rejected():
    with pytest.raises(ValueError, match="^unknown raw penalty mode 'gapp'$"):
        objective_cost(["a", "b"], proc("a", "b"), raw_mode="gapp")


BOUNDARY_CALLS = {
    "objective_cost": lambda draft, *args, **kwargs: objective_cost(draft.step_ids, draft, *args, **kwargs),
    "repair": repair,
    "brute_force_repair": brute_force_repair,
}


@pytest.mark.parametrize("call", BOUNDARY_CALLS.values(), ids=BOUNDARY_CALLS.keys())
@pytest.mark.parametrize(
    "unknown", [PrecedenceConstraint("z", "b"), PrecedenceConstraint("b", "z")], ids=["predecessor", "successor"]
)
def test_constraint_on_an_unknown_step_is_rejected(call, unknown):
    draft = proc("a", "b", "c")
    message = f"^{re.escape(f'constraint references unknown step ids: {unknown}')}$"
    with pytest.raises(ValidationError, match=message):
        call(draft, [PrecedenceConstraint("a", "b"), unknown])
    # the raw mode is checked first
    with pytest.raises(ValueError, match="^unknown raw penalty mode 'gapp'$"):
        call(draft, [unknown], raw_mode="gapp")


def test_cluster_term_counts_cross_pair_inversions():
    clusters = {"a": "wash", "b": "wash", "c": "dry", "d": "dry"}
    draft = proc("a", "b", "c", "d", clusters=clusters)
    cc = [ClusterConstraint(earlier="wash", later="dry")]
    ok = objective_cost(["a", "b", "c", "d"], draft, (), cc, RepairWeights(0, 0, 1, 0))
    assert ok.cluster == 0.0
    bad = objective_cost(["c", "d", "a", "b"], draft, (), cc, RepairWeights(0, 0, 1, 0))
    assert bad.cluster == 4.0  # every (wash, dry) pair inverted


def test_non_bijective_permutation_rejected():
    draft = proc("a", "b", "c")
    with pytest.raises(ValidationError, match="^order is not a permutation of the draft's step ids$"):
        objective_cost(["a", "a", "b"], draft, (), (), RepairWeights())


# ── rule → constraint mapping ─────────────────────────────────────────────

OPEN = "bottle.cap.open"
DRAW = "transfer_material:bottle->pipette:water"
POUR = "transfer_material:pipette->flask:water"


def rule(action, var, value, producers, strength="strong"):
    return CausalRule(action=action, variable=var, value=value, producers=tuple(producers), strength=strength)


def test_open_before_draw_mapping():
    draft = proc("open", "draw", actions=[OPEN, DRAW])
    mapping = map_rules_to_constraints(draft, [rule(DRAW, "cap", "opened", [OPEN])])
    assert [(c.predecessor, c.successor) for c in mapping.constraints] == [("open", "draw")]
    assert mapping.unmatched == ()


def test_rule_without_matching_steps_unmatched():
    draft = proc("open", "draw", actions=[OPEN, DRAW])
    mapping = map_rules_to_constraints(draft, [rule("other.action", "v", "x", [OPEN])])
    assert mapping.constraints == ()
    assert len(mapping.unmatched) == 1


def test_nearest_preceding_producer_chosen():
    draft = proc("d1", "p1", "d2", "p2", "d3", actions=[DRAW, POUR, DRAW, POUR, DRAW])
    mapping = map_rules_to_constraints(
        draft, [rule(POUR, "pipette.material", "water", [DRAW])]
    )
    pairs = {(c.predecessor, c.successor) for c in mapping.constraints}
    assert pairs == {("d1", "p1"), ("d2", "p2")}


def test_fallback_to_earliest_when_no_producer_precedes():
    draft = proc("p1", "d1", "d2", actions=[POUR, DRAW, DRAW])
    mapping = map_rules_to_constraints(
        draft, [rule(POUR, "pipette.material", "water", [DRAW])]
    )
    assert [(c.predecessor, c.successor) for c in mapping.constraints] == [("d1", "p1")]


def test_initial_state_covers_first_consumption():
    draft = proc("d1", "p1", "d2", actions=[DRAW, POUR, DRAW])
    mapping = map_rules_to_constraints(
        draft, [rule(DRAW, "pipette.material", "none", [INITIAL_STATE, POUR])]
    )
    # first draw has no preceding pour and is covered by the initial state;
    # second draw is constrained by the pour that precedes it
    assert [(c.predecessor, c.successor) for c in mapping.constraints] == [("p1", "d2")]


def test_initial_state_only_rule_emits_nothing():
    draft = proc("d1", "d2", actions=[DRAW, DRAW])
    mapping = map_rules_to_constraints(
        draft, [rule(DRAW, "pipette.material", "none", [INITIAL_STATE])]
    )
    assert mapping.constraints == ()
    assert mapping.unmatched == ()


def test_contradictory_toggle_cycle_dropped():
    on, off = "dev.power_button.set(value=on)", "dev.power_button.set(value=off)"
    draft = proc("off1", "on1", actions=[off, on])  # scrambled: off before on
    rules = [
        rule(on, "power", "off", [INITIAL_STATE, off], "weak"),
        rule(off, "power", "on", [on], "weak"),
    ]
    mapping = map_rules_to_constraints(draft, rules)
    assert [(c.predecessor, c.successor) for c in mapping.constraints] == [("on1", "off1")]
    assert [(c.predecessor, c.successor) for c in mapping.dropped] == [("off1", "on1")]


MAP_ACTIONS = ("dev.a", "dev.b", "dev.c")


@st.composite
def mapping_cases(draw):
    """A draft over three actions, some steps unmapped, and rules whose
    producers may list ``initial_state``; each rule has its own origin."""
    n = draw(st.integers(min_value=2, max_value=8))
    actions = draw(st.lists(st.sampled_from(MAP_ACTIONS + (None,)), min_size=n, max_size=n))
    draft = proc(*[f"s{k}" for k in range(n)], actions=actions)
    producers = st.lists(st.sampled_from(MAP_ACTIONS + (INITIAL_STATE,)), min_size=1, max_size=3, unique=True)
    rules = [
        rule(draw(st.sampled_from(MAP_ACTIONS)), f"v{k}", "x", draw(producers))
        for k in range(draw(st.integers(min_value=0, max_value=6)))
    ]
    return draft, rules


@settings(max_examples=300, deadline=None)
@given(mapping_cases())
@example(
    (
        proc("b1", "a1", actions=["dev.b", "dev.a"]),
        [rule("dev.a", "v0", "x", [INITIAL_STATE, "dev.b"]), rule("dev.b", "v1", "x", ["dev.a"])],
    )
)
@example(
    (
        proc("b1", "a1", actions=["dev.b", "dev.a"]),
        [rule("dev.a", "v0", "x", ["dev.b"]), rule("dev.b", "v1", "x", ["dev.a"])],
    )
)
def test_two_cycle_drops_the_direction_whose_rule_lists_initial_state(case):
    draft, rules = case
    mapping = map_rules_to_constraints(draft, rules)
    lists_initial = {f"{r.action}<-{r.variable}={r.value}": INITIAL_STATE in r.producers for r in rules}
    emitted = mapping.constraints + mapping.dropped
    pairs = {(c.predecessor, c.successor) for c in emitted}
    kept = {(c.predecessor, c.successor) for c in mapping.constraints}
    for c in emitted:
        if (c.successor, c.predecessor) in pairs and lists_initial[c.origin]:
            assert c in mapping.dropped
            assert c not in mapping.constraints
    for c in mapping.constraints:  # a 2-cycle left in constraints
        if (c.successor, c.predecessor) in kept:
            assert not lists_initial[c.origin]
    for c in mapping.dropped:
        assert (c.successor, c.predecessor) in pairs and lists_initial[c.origin]


def test_duplicate_step_ids_rejected():
    with pytest.raises(ProcforgeError):
        proc("a", "a")


# ── local search ──────────────────────────────────────────────────────────


def test_satisfied_draft_returned_unchanged():
    draft = proc("open", "draw", "pour", actions=[OPEN, DRAW, POUR])
    constraints = [PrecedenceConstraint("open", "draw"), PrecedenceConstraint("draw", "pour")]
    result = repair(draft, constraints, weights=RepairWeights(0.5, 1, 0, 2), seed=1)
    assert list(result.order) == ["open", "draw", "pour"]
    assert result.cost.total == 0.0
    assert result.cost.raw == 0.0


def test_dominant_raw_weight_fixes_inverted_pair():
    ids = ["a", "b", "c", "d", "e", "f"]
    draft = proc(*ids)
    constraints = [PrecedenceConstraint("e", "b")]
    w = RepairWeights(0.1, 0.1, 0, 50)
    result = repair(draft, constraints, weights=w, seed=3)
    oracle = brute_force_repair(draft, constraints, weights=w)
    assert result.cost.total == pytest.approx(oracle.cost.total)
    pos = {sid: i for i, sid in enumerate(result.order)}
    assert pos["e"] < pos["b"]
    assert result.cost.raw == 0.0


def test_repair_deterministic_given_seed():
    rng = random.Random(0)
    draft, constraints, w = random_instance(rng, 9)
    a = repair(draft, constraints, weights=w, seed=42)
    b = repair(draft, constraints, weights=w, seed=42)
    assert a.order == b.order
    assert a.cost == b.cost


def test_result_cost_recomputes_exactly():
    rng = random.Random(5)
    for n in (4, 6, 9):
        draft, constraints, w = random_instance(rng, n)
        result = repair(draft, constraints, weights=w, seed=n)
        again = objective_cost(list(result.order), draft, constraints, (), w)
        assert again == result.cost


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10_000))
def test_warm_start_dominance(n, seed):
    rng = random.Random(seed)
    draft, constraints, w = random_instance(rng, n)
    draft_cost = objective_cost([s.id for s in draft.steps], draft, constraints, (), w)
    result = repair(draft, constraints, weights=w, seed=seed)
    assert result.cost.total <= draft_cost.total + 1e-9


def test_local_search_matches_brute_force_quick():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(3, 7)
        draft, constraints, w = random_instance(rng, n)
        ls = repair(draft, constraints, weights=w, search=SearchParams(restarts=4), seed=rng.randint(0, 999))
        bf = brute_force_repair(draft, constraints, weights=w)
        assert ls.cost.total == pytest.approx(bf.cost.total)


LABELS = ("wash", "dry", "heat")


@st.composite
def instance_inputs(draw):
    """Repair inputs ``(draft, constraints, clusters, weights, raw_mode)``:
    constraints may repeat and form 2-cycles, and steps carry cluster
    labels under random (also repeated or contradictory) cluster
    constraints."""
    n = draw(st.integers(min_value=2, max_value=14))
    ids = [f"s{k}" for k in range(n)]
    labels = draw(st.lists(st.sampled_from((None,) + LABELS), min_size=n, max_size=n))
    draft = Procedure(steps=tuple(Step(id=sid, cluster=lab) for sid, lab in zip(ids, labels)))
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=2 * n))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))  # duplicates
        pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=2))]  # 2-cycles
    constraints = [PrecedenceConstraint(a, b) for a, b in pairs]
    label_pair = st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)).filter(lambda p: p[0] != p[1])
    clusters = [ClusterConstraint(a, b) for a, b in draw(st.lists(label_pair, max_size=4))]
    values = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 3.7]), min_size=4, max_size=4))
    weights = RepairWeights(*values) if any(values) else RepairWeights()
    mode = draw(st.sampled_from([RAW_BINARY, RAW_GAP]))
    return draft, constraints, clusters, weights, mode


@st.composite
def permuted_inputs(draw):
    """Repair inputs and a random permutation of the draft's indices."""
    inputs = draw(instance_inputs())
    return inputs, list(draw(st.permutations(range(len(inputs[0].steps)))))


def neighbourhood_cases():
    """A random permutation of a random instance."""
    return permuted_inputs().map(lambda case: (_instance(*case[0]), case[1]))


def full_rows(inst, perm):
    """Yield ``(i, d_total)`` for every row of perm, both halves swept."""
    _, _, sweep = _scan(inst, perm)
    for i in range(inst.n):
        d_total = [float("inf")] * inst.n
        sweep(i, True, True, d_total)
        yield i, d_total


@settings(max_examples=300, deadline=None)
@given(permuted_inputs())
def test_cost_terms_match_their_definitions(case):
    (draft, constraints, clusters, weights, mode), perm = case
    inst = _instance(draft, constraints, clusters, weights, mode)
    draft_ids = [s.id for s in draft.steps]
    order = [draft_ids[k] for k in perm]
    label = {s.id: s.cluster for s in draft.steps}
    cost = inst.cost(perm)
    assert cost.position == sum(abs(p - k) for p, k in enumerate(perm))
    assert cost.edge == metrics.breakpoints(order, draft_ids)
    assert cost.raw == metrics.raw_slack(order, [(c.predecessor, c.successor) for c in constraints], mode)
    # once per cluster constraint, every pair placed later-label first
    inversions = sum(
        label[order[p]] == cc.later and label[order[q]] == cc.earlier
        for cc in clusters
        for p in range(len(order))
        for q in range(p + 1, len(order))
    )
    assert cost.cluster == inversions
    assert cost.total == (
        weights.lambda_pos * cost.position
        + weights.lambda_edge * cost.edge
        + weights.lambda_cluster * cost.cluster
        + weights.lambda_raw * cost.raw
    )


@settings(max_examples=300, deadline=None)
@given(permuted_inputs())
def test_mirror_is_the_problem_read_backwards(case):
    inputs, perm = case
    inst = _instance(*inputs)
    n = inst.n
    assert inst.mirror.cost([n - 1 - e for e in reversed(perm)]) == inst.cost(perm)
    twice = inst.mirror.mirror
    assert twice.constraints == inst.constraints
    assert twice.cluster_of == inst.cluster_of
    assert twice.cluster_counts == inst.cluster_counts


@settings(max_examples=300, deadline=None)
@given(instance_inputs())
def test_mirror_matches_the_problem_built_from_the_reversed_draft(inputs):
    draft, constraints, clusters, weights, mode = inputs
    mirror = _instance(*inputs).mirror
    want = _instance(
        Procedure(steps=draft.steps[::-1]),
        [PrecedenceConstraint(c.successor, c.predecessor) for c in constraints],
        [ClusterConstraint(c.later, c.earlier) for c in clusters],
        weights,
        mode,
    )
    assert mirror.n == want.n
    assert mirror.constraints == want.constraints
    assert mirror.cluster_of == want.cluster_of
    assert mirror.cluster_counts == want.cluster_counts


@settings(max_examples=300, deadline=None)
@given(neighbourhood_cases())
def test_neighbourhood_matches_full_cost_recompute(case):
    inst, perm = case
    before = inst.cost(perm)
    rows = 0
    for i, d_total in full_rows(inst, perm):
        rows += 1
        for j in range(inst.n):
            if j == i:
                continue
            moved = _reinsert(perm, i, j)
            assert d_total[j] == pytest.approx(inst.cost(moved).total - before.total, abs=1e-9)
    assert rows == inst.n


@settings(max_examples=300, deadline=None)
@given(neighbourhood_cases())
def test_half_row_bounds_lie_below_every_move_of_the_half_row(case):
    inst, perm = case
    before = inst.cost(perm).total
    right, left, _ = _scan(inst, perm)
    for i in range(inst.n):
        deltas = [inst.cost(_reinsert(perm, i, j)).total - before for j in range(inst.n)]
        assert right[i] <= min(deltas[i + 1 :], default=float("inf")) + 1e-9
        assert left[i] <= min(deltas[:i], default=float("inf")) + 1e-9


def reference_best_move(inst, perm):
    """The best move without row skipping: every move within 1e-12 of the
    full-row minimum ties, and ties keep the minimum displacement change
    first, then the lexicographically smallest moved permutation, then the
    first (i, j)."""
    if inst.n < 2:
        return None
    rows = list(full_rows(inst, perm))
    best_delta = min(min(row_total) for _, row_total in rows)
    ties = [
        (inst.displacement(_reinsert(perm, i, j)) - inst.displacement(perm), i, j)
        for i, row_total in rows
        for j in range(inst.n)
        if j != i and row_total[j] <= best_delta + 1e-12
    ]
    min_disp = min(t[0] for t in ties)
    finalists = [t for t in ties if t[0] == min_disp]
    _, i, j = min(finalists, key=lambda t: tuple(_reinsert(perm, t[1], t[2])))
    return best_delta, i, j


@settings(max_examples=300, deadline=None)
@given(neighbourhood_cases())
# an exact plateau: every move ties at 0
@example((_instance(proc("a", "b", "c", "d", "e"), [], [], RepairWeights(0, 0, 0, 1), RAW_BINARY), [3, 0, 4, 1, 2]))
# the probe, row 0 moving right, reaches -1; the best move, row 2 to 0, is -2
@example(
    (_instance(proc("a", "b", "c"), [PrecedenceConstraint("c", "b")], [], RepairWeights(1, 1, 0, 1), RAW_BINARY), [2, 1, 0])
)
# the minimum is (3, 0), and (0, 3) lies 6e-13 above it, so both tie; a
# running tie rule in row order drops (0, 3), the better-ranked one, when
# (3, 0) undercuts the band that row 0 opened
@example(
    (
        _instance(
            proc("s0", "s1", "s2", "s3"),
            [PrecedenceConstraint("s1", "s3"), PrecedenceConstraint("s3", "s0")],
            [],
            RepairWeights(1, 0, 0, 6e-13),
            RAW_GAP,
        ),
        [2, 0, 3, 1],
    )
)
def test_best_move_matches_full_row_reference(case):
    inst, perm = case
    assert _best_move(inst, perm) == reference_best_move(inst, perm)


def reference_descend(inst, start, max_stale):
    """The descent without a move table or row skipping, making each
    move :func:`reference_best_move` picks."""
    n = inst.n
    current = list(start)
    current_cost = inst.cost(current).total
    best, best_cost = list(current), current_cost
    stale = iterations = 0
    while iterations < 200 * max(n, 1):
        iterations += 1
        move = reference_best_move(inst, current)
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
        current_cost = inst.cost(current).total
        if current_cost < best_cost - 1e-12:
            best, best_cost = list(current), current_cost
    return best, best_cost, iterations


def exchange(n, a, b):
    perm = list(range(n))
    perm[a], perm[b] = b, a
    return perm


def reference_starts(inst, search, seed):
    """The descents' starts: the draft, then at lambda_pos > 0 the draft
    with one pair (a, b) exchanged for the restarts - 1 cheapest pairs by
    ``inst.cost``, ties broken by (a, b), and at lambda_pos == 0 the draft
    shuffled by ``derive_seed(seed, "restart:r")`` for r = 1 … restarts - 1."""
    n = inst.n
    draft_perm = list(range(n))
    if inst.weights.lambda_pos > 0:
        ranked = sorted((inst.cost(exchange(n, a, b)).total, a, b) for a in range(n) for b in range(a + 1, n))
        return [draft_perm] + [exchange(n, a, b) for _, a, b in ranked[: search.restarts - 1]]
    starts = [draft_perm]
    for r in range(1, search.restarts):
        start = list(draft_perm)
        random.Random(derive_seed(seed, f"restart:{r}")).shuffle(start)
        starts.append(start)
    return starts


def reference_repair(draft, constraints, clusters, weights, search, seed, raw_mode):
    """``repair()`` with :func:`reference_descend` for every restart."""
    inst = _instance(draft, constraints, clusters, weights, raw_mode)
    draft_perm = list(range(inst.n))
    best_perm = best_cost = None
    iterations = 0
    for start in reference_starts(inst, search, seed):
        perm, cost, iters = reference_descend(inst, start, search.max_stale_iters)
        iterations += iters
        if best_cost is None or cost < best_cost - 1e-12:
            best_perm, best_cost = perm, cost
    trace = {
        "restarts": search.restarts,
        "iterations": iterations,
        "seed": seed,
        "draft_cost": inst.cost(draft_perm).total,
        "method": "local_search",
    }
    return RepairResult(tuple(draft.steps[i].id for i in best_perm), inst.cost(best_perm), trace)


@settings(max_examples=200, deadline=None)
@given(
    instance_inputs(),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)
def test_repair_matches_reference_descent(inputs, restarts, max_stale, seed):
    draft, constraints, clusters, weights, mode = inputs
    search = SearchParams(restarts=restarts, max_stale_iters=max_stale)
    got = repair(draft, constraints, clusters, weights=weights, search=search, seed=seed, raw_mode=mode)
    want = reference_repair(draft, constraints, clusters, weights, search, seed, mode)
    assert got.order == want.order
    assert got.cost == want.cost
    assert got.trace == want.trace


@pytest.mark.parametrize(
    "draft, constraints, weights, search",
    [
        # No constraints and only the raw term: every move costs 0, so the
        # plateau walk swaps a pair and swaps it back until it goes stale.
        (proc("a", "b", "c", "d", "e"), [], RepairWeights(0, 0, 0, 1), SearchParams(restarts=1, max_stale_iters=10)),
        # Strict descents only: any rescan is a restart reaching a
        # permutation an earlier restart already scanned.
        (
            proc("a", "b", "c", "d", "e", "f"),
            [PrecedenceConstraint("f", "a"), PrecedenceConstraint("e", "b")],
            RepairWeights(0.5, 1, 0, 2),
            SearchParams(restarts=5, max_stale_iters=0),
        ),
    ],
    ids=["plateau", "restarts"],
)
def test_each_permutation_is_scanned_once_per_call(monkeypatch, draft, constraints, weights, search):
    scanned = []
    kernel = repair_module._scan

    def counted(inst, perm):
        scanned.append(tuple(perm))
        return kernel(inst, perm)

    monkeypatch.setattr(repair_module, "_scan", counted)
    result = repair(draft, constraints, weights=weights, search=search, seed=3)
    want = reference_repair(draft, constraints, (), weights, search, 3, RAW_BINARY)
    assert result.trace["iterations"] == want.trace["iterations"]
    assert len(scanned) == len(set(scanned))
    assert len(scanned) < result.trace["iterations"]


def recorded_starts(monkeypatch):
    """Patch ``_descend`` to record each start it receives; return the list."""
    starts = []
    descend = repair_module._descend

    def recorded(inst, start, max_stale, moves):
        starts.append(list(start))
        return descend(inst, start, max_stale, moves)

    monkeypatch.setattr(repair_module, "_descend", recorded)
    return starts


@pytest.mark.parametrize("lambda_pos", [0.5, 0.0], ids=["exchanges", "shuffles"])
def test_descents_start_at_the_draft_then_its_cheapest_exchanges_or_shuffles(monkeypatch, lambda_pos):
    """At lambda_pos > 0 the descents after the first start at the draft's
    cheapest pair exchanges, ties broken by the pair; at lambda_pos == 0 at
    the seeded shuffles."""
    draft = proc(*"abcdefgh")
    constraints = [PrecedenceConstraint("f", "b")]
    weights = RepairWeights(lambda_pos, 1.0, 0.0, 2.0)
    search = SearchParams(restarts=6, max_stale_iters=3)
    starts = recorded_starts(monkeypatch)
    repair(draft, constraints, weights=weights, search=search, seed=11, raw_mode=RAW_GAP)
    assert starts == reference_starts(_instance(draft, constraints, (), weights, RAW_GAP), search, 11)
    if lambda_pos:
        # costs 8.0, 8.0, then 9.0 three times; the draft costs 8.0 too
        pairs = [(0, 5), (1, 5), (1, 4), (1, 6), (1, 7)]
        assert starts == [list(range(8))] + [exchange(8, a, b) for a, b in pairs]


def test_one_descent_starts_at_the_draft_and_ranks_no_exchange(monkeypatch):
    starts = recorded_starts(monkeypatch)
    costed = []
    cost = repair_module._Instance.cost

    def counted(inst, perm):
        costed.append(list(perm))
        return cost(inst, perm)

    monkeypatch.setattr(repair_module._Instance, "cost", counted)
    draft = proc(*"abcdefgh")
    weights = RepairWeights(0.5, 1.0, 0.0, 2.0)
    repair(draft, [PrecedenceConstraint("f", "b")], weights=weights, search=SearchParams(restarts=1), seed=11)
    assert starts == [list(range(8))]
    assert len(costed) == 3  # the descent's result, the returned breakdown and the draft's cost


def scale_instance(rng, n):
    """A draft of n steps, a few reinsertions away from a hidden order, with
    about n constraints between nearby steps of that order (a few of them
    reversed) and two cluster labels, as the benchmark's drafts have."""
    truth = [f"s{k}" for k in range(n)]
    order = list(truth)
    for _ in range(n // 5):
        order.insert(rng.randrange(n), order.pop(rng.randrange(n)))
    labels = {sid: rng.choice((None, "wash", "dry")) for sid in truth}
    draft = Procedure(steps=tuple(Step(id=sid, cluster=labels[sid]) for sid in order))
    constraints = []
    for _ in range(n):
        a = rng.randrange(n - 1)
        b = min(n - 1, a + rng.randint(1, 5))
        pair = (truth[a], truth[b]) if rng.random() < 0.9 else (truth[b], truth[a])
        constraints.append(PrecedenceConstraint(*pair))
    return draft, constraints, [ClusterConstraint("wash", "dry")], RepairWeights(0.5, 1.0, 0.1, 3.7)


@pytest.mark.parametrize(
    "n, mode, seed", [(30, RAW_GAP, 1), (40, RAW_BINARY, 2), (60, RAW_GAP, 3)], ids=["30-gap", "40-binary", "60-gap"]
)
def test_pruned_repair_matches_reference_descent_at_benchmark_scale(monkeypatch, n, mode, seed):
    """Half-rows are skipped on these scans, and the search still makes
    every move the unpruned reference makes."""
    draft, constraints, clusters, weights = scale_instance(random.Random(seed), n)
    search = SearchParams(restarts=2, max_stale_iters=2)
    swept = []  # per scan, the rows with at least one half-row swept
    kernel = repair_module._scan

    def counted(inst, perm):
        right_floor, left_floor, sweep = kernel(inst, perm)
        rows = set()
        swept.append(rows)

        def counted_sweep(i, right, left, d_total):
            if right or left:
                rows.add(i)
            sweep(i, right, left, d_total)

        return right_floor, left_floor, counted_sweep

    monkeypatch.setattr(repair_module, "_scan", counted)
    got = repair(draft, constraints, clusters, weights=weights, search=search, seed=seed, raw_mode=mode)
    monkeypatch.undo()
    yielded = [len(rows) for rows in swept]
    want = reference_repair(draft, constraints, clusters, weights, search, seed, mode)
    assert got.order == want.order
    assert got.cost == want.cost
    assert got.trace == want.trace
    assert min(yielded) < n


@pytest.mark.parametrize(
    "n, mode, seed", [(30, RAW_GAP, 1), (40, RAW_BINARY, 2), (60, RAW_GAP, 3)], ids=["30-gap", "40-binary", "60-gap"]
)
def test_scan_sweeps_half_rows_in_bound_order_through_the_margin(monkeypatch, n, mode, seed):
    """Each scan sweeps its half-rows lowest bound first, and sweeps every
    half-row whose bound lies within the margin of the scan's minimum."""
    draft, constraints, clusters, weights = scale_instance(random.Random(seed), n)
    scans = []  # per scan: perm, its half-row bounds, and the half-rows swept as (i, right) in order
    kernel = repair_module._scan

    def recorded(inst, perm):
        right_floor, left_floor, sweep = kernel(inst, perm)
        swept = []
        scans.append((list(perm), right_floor, left_floor, swept))

        def recorded_sweep(i, right, left, d_total):
            swept.extend([(i, True)] * right + [(i, False)] * left)
            sweep(i, right, left, d_total)

        return right_floor, left_floor, recorded_sweep

    monkeypatch.setattr(repair_module, "_scan", recorded)
    search = SearchParams(restarts=2, max_stale_iters=2)
    repair(draft, constraints, clusters, weights=weights, search=search, seed=seed, raw_mode=mode)
    monkeypatch.undo()
    inst = _instance(draft, constraints, clusters, weights, mode)
    margin = 1e-9 * max(1.0, weights.lambda_pos, weights.lambda_edge, weights.lambda_cluster, weights.lambda_raw)
    for perm, right_floor, left_floor, swept in scans:
        bound = {(i, right): (right_floor if right else left_floor)[i] for i in range(n) for right in (True, False)}
        order = [bound[half] for half in swept]
        assert order == sorted(order)
        assert len(set(swept)) == len(swept)
        minimum = min(min(d_total) for _, d_total in full_rows(inst, perm))
        assert {half for half, b in bound.items() if b <= minimum + margin} <= set(swept)


# ── brute force ───────────────────────────────────────────────────────────


def test_brute_force_single_step():
    result = brute_force_repair(proc("only"))
    assert result.order == ("only",)


def test_brute_force_respects_limit():
    draft = proc(*[f"s{i}" for i in range(9)])
    with pytest.raises(ProcforgeError):
        brute_force_repair(draft, limit=8)


def test_position_only_weights_keep_identity():
    draft = proc("a", "b", "c", "d")
    result = brute_force_repair(draft, weights=RepairWeights(1, 0, 0, 0))
    assert list(result.order) == ["a", "b", "c", "d"]
    assert result.cost.total == 0.0


def brute_force_argmin_set(draft, constraints, weights):
    import itertools

    ids = [s.id for s in draft.steps]
    best = None
    argmin = set()
    for perm in itertools.permutations(ids):
        total = objective_cost(list(perm), draft, constraints, (), weights).total
        if best is None or total < best - 1e-12:
            best = total
            argmin = {perm}
        elif abs(total - best) <= 1e-12:
            argmin.add(perm)
    return argmin


def test_weight_scaling_preserves_argmin_set():
    rng = random.Random(7)
    for _ in range(10):
        draft, constraints, w = random_instance(rng, 5)
        scaled = RepairWeights(
            w.lambda_pos * 3, w.lambda_edge * 3, w.lambda_cluster * 3, w.lambda_raw * 3
        )
        assert brute_force_argmin_set(draft, constraints, w) == brute_force_argmin_set(
            draft, constraints, scaled
        )


# ── serialization ─────────────────────────────────────────────────────────


def test_procedure_round_trip():
    draft = proc("a", "b", clusters={"a": "prep"}, actions=[OPEN, None])
    doc = procedure_to_dict(draft)
    assert doc["steps"][1]["action"] is None  # unmapped step, explicit
    assert procedure_from_dict(doc) == draft


def test_weights_invariants():
    with pytest.raises(ValueError):
        RepairWeights(0, 0, 0, 0)
    with pytest.raises(ValueError):
        RepairWeights(-1, 1, 0, 1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, False])
@pytest.mark.parametrize("slot", range(4))
def test_non_finite_weights_rejected(value, slot):
    values = [0.5, 1.0, 0.0, 2.0]
    values[slot] = value
    with pytest.raises(ValueError, match="finite"):
        RepairWeights(*values)


def test_unmapped_steps_get_no_constraints():
    steps = (
        Step(id="note", action=None, text="observe the result"),
        Step(id="open", action=bound_action_from_parts(OPEN, {})),
        Step(id="draw", action=bound_action_from_parts(DRAW, {})),
    )
    draft = Procedure(steps=steps)
    mapping = map_rules_to_constraints(draft, [rule(DRAW, "cap", "opened", [OPEN])])
    assert [(c.predecessor, c.successor) for c in mapping.constraints] == [("open", "draw")]
