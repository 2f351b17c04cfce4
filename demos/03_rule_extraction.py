"""From world-model entries to preconditions and causal precedence rules.

Entries are classified by plausibility; weighted value supports over
valid and invalid evidence identify required and forbidden values; and
every required value is linked to the actions observed to produce it,
giving producer-before-consumer ordering rules with a strong/weak grade.
"""

import json
from pathlib import Path

from procforge import (
    ExtractionConfig,
    NoiseSpec,
    OracleSpec,
    aggregate,
    build_template,
    extract_rules,
    parse_inventory,
    resolve_dynamic_domains,
    simulate_oracle,
)

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
DRAW = "transfer_material:ddh2o_bottle->electronic_pipette:ddH2O"
CAP = "ddh2o_bottle.cap.state"


def label(action):
    if action == "initial_state":
        return "initial state"
    if action.startswith("transfer_material:"):
        src, dst = action.split(":")[1].split("->")
        return f"transfer {src} -> {dst}"
    return action


def main():
    inv = resolve_dynamic_domains(parse_inventory((BENCHMARK / "pipette_inventory.json").read_text()))
    oracles = json.loads((BENCHMARK / "pipette_oracles.json").read_text())
    cfg = ExtractionConfig()

    models = []
    for obj, seed in (("electronic_pipette", 0), ("ddh2o_bottle", 1000)):
        tpl = build_template(inv, obj)
        oracle = OracleSpec.from_dict(oracles[obj])
        models.append(aggregate(simulate_oracle(tpl, oracle, 250, NoiseSpec(seed=seed))))

    rule_set = extract_rules(models, inv, cfg)
    print("evidence for the draw action over the bottle-cap variable:")
    for p in rule_set.preconditions:
        if p.action == DRAW and p.variable == CAP:
            invalid = "no evidence" if p.invalid_support is None else f"{p.invalid_support:.2f}"
            print(
                f"  {p.kind} cap={p.value}: valid support {p.valid_support:.2f}, "
                f"invalid support {invalid}, {p.contrast} one-value contrast pairs"
            )

    print("\nextracted preconditions:")
    for p in rule_set.preconditions:
        grade = f" [{p.strength}]" if p.strength else ""
        print(f"  {p.kind:9} {label(p.action)}: {p.variable.split('.')[-1]} = {p.value}{grade}")

    rules = rule_set.causal_rules
    strong = sum(r.strength == "strong" for r in rules)
    print(f"\ncausal precedence rules: {len(rules)} total ({strong} strong / {len(rules) - strong} weak)")
    for r in rules:
        producers = " / ".join(label(p) for p in r.producers)
        print(f"  {label(r.action)}  needs  {r.variable.split('.')[-1]}={r.value}  <-  {producers}  [{r.strength}]")


if __name__ == "__main__":
    main()
