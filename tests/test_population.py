"""Repair judged on a population of drafts, not on the one the pipeline makes.

The drafts are the benchmark's truth procedure perturbed by the config's
``[perturb]`` section at the seeds ``derive_seed(s, "perturb")``, each
mapped with the rules that ``template`` through ``extract`` write on the
benchmark config.
"""

import json
import shutil
from dataclasses import dataclass, replace

import pytest

from procforge import metrics
from procforge.metrics import RAW_GAP
from procforge.perturb import perturb
from procforge.pipeline import load_config, run_stage
from procforge.repair import derive_seed, map_rules_to_constraints, procedure_from_dict, repair
from procforge.rules import rule_set_from_dict


@dataclass(frozen=True)
class PopulationReport:
    drafts: int
    slack_zero: int  # repaired orders that violate none of their draft's constraints
    truth_violates: int  # drafts whose constraints the truth order violates
    mean_tau: float  # Kendall tau of the repaired orders against the truth
    draft_mean_tau: float  # the same for the drafts themselves
    mean_breakpoints: float
    worse_than_draft: int  # repairs whose cost exceeds their draft's


def population_draft(rules, truth, spec, s):
    """Draft ``s`` of the population and the constraints ``rules`` map onto it."""
    draft, _ = perturb(truth, replace(spec, seed=derive_seed(s, "perturb")))
    return draft, list(map_rules_to_constraints(draft, rules).constraints)


def repair_population(rules, truth, spec, weights, search, raw_mode, seeds=range(40)) -> PopulationReport:
    """Perturb ``truth`` once per seed, map ``rules`` onto the draft,
    repair it and score the result against the truth."""
    slack_zero = truth_violates = worse = 0
    taus, draft_taus, breakpoints = [], [], []
    for s in seeds:
        draft, constraints = population_draft(rules, truth, spec, s)
        pairs = [(c.predecessor, c.successor) for c in constraints]
        result = repair(draft, constraints, weights=weights, search=search, raw_mode=raw_mode)
        report = metrics.sequence_report(list(result.order), truth.step_ids, pairs)
        slack_zero += report.raw_slack == 0
        truth_violates += metrics.raw_slack(truth.step_ids, pairs) > 0
        worse += result.cost.total > result.trace["draft_cost"]
        taus.append(report.kendall_tau)
        draft_taus.append(metrics.kendall_tau(draft.step_ids, truth.step_ids))
        breakpoints.append(report.breakpoints)
    k = len(taus)
    return PopulationReport(
        drafts=k,
        slack_zero=slack_zero,
        truth_violates=truth_violates,
        mean_tau=sum(taus) / k,
        draft_mean_tau=sum(draft_taus) / k,
        mean_breakpoints=sum(breakpoints) / k,
        worse_than_draft=worse,
    )


@pytest.fixture(scope="module")
def benchmark_rules(tmp_path_factory, benchmark_dir):
    """The benchmark config, its truth procedure and the causal rules it mines."""
    workdir = tmp_path_factory.mktemp("population")
    for name in ("inventory.json", "oracles.json", "truth_procedure.json", "config.toml"):
        shutil.copy(benchmark_dir / name, workdir / name)
    cfg = load_config(workdir / "config.toml")
    for stage in ("template", "sample", "aggregate", "extract"):
        run_stage(stage, cfg)
    rules = list(rule_set_from_dict(json.loads(cfg.path("rules").read_text())).causal_rules)
    truth = procedure_from_dict(json.loads(cfg.path("truth_procedure").read_text()))
    return cfg, truth, rules


def test_shipped_weights_on_forty_drafts(benchmark_rules):
    cfg, truth, rules = benchmark_rules
    search = replace(cfg.search, restarts=1)
    report = repair_population(rules, truth, cfg.perturbation, cfg.weights, search, RAW_GAP)
    assert report.drafts == 40
    assert report.slack_zero == 17
    assert report.truth_violates == 7
    assert report.mean_tau == pytest.approx(0.946092, abs=5e-7)
    assert report.draft_mean_tau == pytest.approx(0.918046, abs=5e-7)
    assert report.mean_breakpoints == 12.0
    assert report.worse_than_draft == 0


def test_restarts_lower_cost_on_two_drafts(benchmark_rules):
    """What restarts 1-7 buy over restart 0 alone: shipped weights, gap
    mode, ``repair``'s default seed.  Any change to the restarts shows here."""
    cfg, truth, rules = benchmark_rules
    lowered = {}
    for s in range(40):
        draft, constraints = population_draft(rules, truth, cfg.perturbation, s)
        one, eight = (
            repair(draft, constraints, weights=cfg.weights, search=replace(cfg.search, restarts=r),
                   raw_mode=RAW_GAP).cost.total
            for r in (1, 8)
        )
        assert eight <= one
        if eight < one:
            lowered[s] = (one, eight)
    assert lowered == {4: (18.0, 16.0), 39: (11.0, 10.0)}
