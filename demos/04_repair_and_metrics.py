"""Constraint-guided repair of a deliberately scrambled procedure.

The 30-step ground-truth procedure is perturbed with the benchmark
config's seeded local misorderings, the extracted rules are mapped onto
the scrambled draft as precedence constraints, and the permutation search
(warm-started at the draft) reorders steps to satisfy them under the
config's weights, search and seed.  Both orderings are then scored
against the ground truth, as ``procforge all`` writes them to
``out/metrics.txt``.
"""

import json
from dataclasses import asdict
from pathlib import Path

from procforge import map_rules_to_constraints, perturb, repair
from procforge.metrics import evaluate, format_table
from procforge.pipeline import load_config, run_stage
from procforge.repair import derive_seed, procedure_from_dict
from procforge.rules import rule_set_from_dict

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def main():
    cfg = load_config(BENCHMARK / "config.toml")
    for stage in ("template", "sample", "aggregate", "extract"):
        run_stage(stage, cfg)
    rules = rule_set_from_dict(json.loads(cfg.path("rules").read_text()))
    truth = procedure_from_dict(json.loads((BENCHMARK / "truth_procedure.json").read_text()))

    draft, log = perturb(truth, cfg.perturbation)
    print("seeded misorderings introduced into the ground truth:")
    for move in log.moves:
        print(f"  {move['kind']}: step {move['step_id']} moved {move['from']} -> {move['to']}")

    mapping = map_rules_to_constraints(draft, list(rules.causal_rules))
    print(f"\nmapped {len(mapping.constraints)} precedence constraints onto the draft")
    if mapping.dropped:
        for c in mapping.dropped:
            print(f"  dropped contradictory edge {c.predecessor} -> {c.successor}")

    result = repair(
        draft,
        list(mapping.constraints),
        weights=cfg.weights,
        search=cfg.search,
        seed=derive_seed(cfg.seed, "repair"),
        raw_mode=cfg.raw_penalty,
    )
    repaired = draft.reordered(list(result.order))
    print(f"\nrepair cost breakdown: {asdict(result.cost)}")

    pairs = [(c.predecessor, c.successor) for c in mapping.constraints]
    draft_report, repaired_report = evaluate(draft.step_ids, repaired.step_ids, truth.step_ids, pairs)
    print("\ncomparison against the ground truth:")
    print(format_table({"draft": draft_report, "repaired": repaired_report}))


if __name__ == "__main__":
    main()
