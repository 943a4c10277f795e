"""Analyzer: restricted-grammar parsing, rule packs, and the penalty score.

Findings carry a dimension (static / policy / runtime / formal) and a
severity weight; the penalty is 100 minus the weighted sum, clamped to
[0, 100], so lower scores mean more severe issues. An external linter's
findings would join the static ones through
``gmas_harness.analyzer.merge_external_lint``.
"""

from pathlib import Path

from gmas_harness import PolicyRuleSet, build_report, enforce_policy, formal_lite_check, parse_code, run_static_checks

SAMPLE = Path(__file__).parent.parent / "sample_data"

CLEAN = """import ric
grant = ric.allocate_prb("s1", 6)
ric.record_kpi(grant)
ric.admit("s1")
"""

RISKY = """import os
import ric
scratch = 1
os.system("reboot ru")
ric.admit("s1")
ric.reject("s1")
seed = random.random()
ric.log(seed)
"""


def analyze(code: str, rules: PolicyRuleSet):
    tree = parse_code(code)  # one flat statement list; each rule pack reads only it
    findings = run_static_checks(tree)
    findings += enforce_policy(tree, rules)
    findings += formal_lite_check(tree)
    return build_report(findings)


rules = PolicyRuleSet.from_json(SAMPLE / "policy_rules.json")

for label, code in (("clean", CLEAN), ("risky", RISKY)):
    report = analyze(code, rules)
    print(f"--- {label} snippet ---")
    for f in report.findings:
        loc = f"line {f.location[0]}" if f.location else "-"
        print(f"  [{f.severity.value:8s}] {f.dimension.value}/{f.rule_id} ({loc})")
    failed = [d.value for d in report.failed_dimensions()]
    print(f"  penalty {report.penalty_score:g}, failed dimensions: {failed or 'none'}")
    print()
