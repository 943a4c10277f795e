from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmas_harness.analyzer import (Call, DEFAULT_SEVERITY_WEIGHTS,
                                   Dimension, Finding, Literal, Name, OpChain,
                                   PolicyRuleSet, Severity, Statement,
                                   StatementKind, aggregate_penalty, build_report,
                                   enforce_policy, formal_lite_check, parse_code,
                                   run_external_hook, run_static_checks)

DATA = Path(__file__).parent / "data"


# ── parse_code ───────────────────────────────────────────────────────────────

def test_plain_import():
    tree = parse_code("import os")
    assert len(tree.statements) == 1
    stmt = tree.statements[0]
    assert stmt.kind is StatementKind.IMPORT
    assert stmt.dotted_name == "os"
    assert tree.unparsed_regions == []


def test_assignment_contains_call_node():
    tree = parse_code("x = allocate_prb(5)")
    stmt = tree.statements[0]
    assert stmt.kind is StatementKind.ASSIGN
    assert stmt.dotted_name == "x"
    assert len(stmt.children) == 1
    child = stmt.children[0]
    assert child.kind is StatementKind.CALL
    assert child.dotted_name == "allocate_prb"
    assert child.args == (Literal(5),)


GOLDEN_SOURCE = """import ric
from math import sqrt
budget = 24
grant = ric.allocate_prb("s1", 6)
if budget > 10:
    ric.admit("s1")
for sid in slice_list:
    ric.set_priority(sid, 2)
total = budget - grant
ric.log_total(total)
launch missiles!!!
ric.report(sqrt(total))"""


def _stmt(kind, line, raw, **kw):
    return Statement(kind=kind, line=line, raw=raw, **kw)


def test_twelve_line_fixture_matches_hand_built_golden_tree():
    tree = parse_code(GOLDEN_SOURCE)

    alloc_call = Call("ric.allocate_prb", (Literal("s1"), Literal(6)))
    sqrt_call = Call("sqrt", (Name("total"),))
    expected = [
        _stmt(StatementKind.IMPORT, 1, "import ric", dotted_name="ric",
              bindings=(("ric", "ric"),)),
        _stmt(StatementKind.IMPORT, 2, "from math import sqrt", dotted_name="math",
              bindings=(("sqrt", "math.sqrt"),)),
        _stmt(StatementKind.ASSIGN, 3, "budget = 24", dotted_name="budget",
              expr=Literal(24)),
        _stmt(StatementKind.ASSIGN, 4, 'grant = ric.allocate_prb("s1", 6)',
              dotted_name="grant", expr=alloc_call,
              children=[_stmt(StatementKind.CALL, 4,
                              'grant = ric.allocate_prb("s1", 6)',
                              dotted_name="ric.allocate_prb",
                              args=(Literal("s1"), Literal(6)))]),
        _stmt(StatementKind.CONDITIONAL, 5, "if budget > 10:",
              expr=OpChain((Name("budget"), Literal(10)), (">",)),
              children=[_stmt(StatementKind.CALL, 6, 'ric.admit("s1")',
                              dotted_name="ric.admit", args=(Literal("s1"),),
                              expr=Call("ric.admit", (Literal("s1"),)))]),
        _stmt(StatementKind.LOOP, 7, "for sid in slice_list:",
              loop_var="sid", expr=Name("slice_list"),
              children=[_stmt(StatementKind.CALL, 8, "ric.set_priority(sid, 2)",
                              dotted_name="ric.set_priority",
                              args=(Name("sid"), Literal(2)),
                              expr=Call("ric.set_priority",
                                        (Name("sid"), Literal(2))))]),
        _stmt(StatementKind.ASSIGN, 9, "total = budget - grant",
              dotted_name="total",
              expr=OpChain((Name("budget"), Name("grant")), ("-",))),
        _stmt(StatementKind.CALL, 10, "ric.log_total(total)",
              dotted_name="ric.log_total", args=(Name("total"),),
              expr=Call("ric.log_total", (Name("total"),))),
        _stmt(StatementKind.CALL, 12, "ric.report(sqrt(total))",
              dotted_name="ric.report", args=(sqrt_call,),
              expr=Call("ric.report", (sqrt_call,)),
              children=[_stmt(StatementKind.CALL, 12, "ric.report(sqrt(total))",
                              dotted_name="sqrt", args=(Name("total"),))]),
    ]
    assert tree.statements == expected
    assert tree.unparsed_regions == [(11, 11)]


def test_parse_is_total_on_garbage():
    tree = parse_code("?? not code ??\n@@@\n")
    assert tree.statements == []
    assert tree.unparsed_regions == [(1, 2)]


def test_blank_and_comment_lines_are_covered():
    tree = parse_code("# heading\n\nimport ric\n")
    assert tree.unparsed_regions == []
    assert len(tree.statements) == 1


@settings(max_examples=150)
@given(st.text(max_size=300))
def test_parse_code_never_raises_and_partitions_lines(source):
    tree = parse_code(source)
    total = len(source.split("\n"))
    unparsed = set()
    last_end = 0
    for start, end in tree.unparsed_regions:
        assert 1 <= start <= end <= total
        assert start > last_end  # ordered, disjoint, merged
        last_end = end
        unparsed.update(range(start, end + 1))
    for stmt in tree.flat:
        assert stmt.line not in unparsed


def test_parse_deterministic():
    a = parse_code(GOLDEN_SOURCE)
    b = parse_code(GOLDEN_SOURCE)
    assert a.statements == b.statements
    assert a.unparsed_regions == b.unparsed_regions


# ── static checks ────────────────────────────────────────────────────────────

def _ids(findings):
    return [(f.rule_id, f.location[0] if f.location else None) for f in findings]


def test_clean_snippet_has_no_findings():
    code = 'import ric\ng = ric.allocate_prb("s1", 4)\nric.record(g)'
    tree = parse_code(code)
    assert run_static_checks(tree, code) == []


def test_unused_assignment_warning():
    code = "x = 1"
    findings = run_static_checks(parse_code(code), code)
    assert _ids(findings) == [("unused_assignment", 1)]
    assert findings[0].severity is Severity.WARNING


def test_fixture_with_two_planted_issues_yields_exactly_those():
    code = ("import ric\n"
            "unused_x = 5\n"
            'grant = ric.allocate_prb("s1", 4)\n'
            "ric.log(grant)\n"
            "ric.notify(missing_name)")
    findings = run_static_checks(parse_code(code), code)
    assert _ids(findings) == [("unused_assignment", 2), ("undefined_name", 5)]


def test_reassignment_before_read_flags_first_assignment():
    code = "import ric\nx = 1\nx = 2\nric.log(x)"
    findings = run_static_checks(parse_code(code), code)
    assert _ids(findings) == [("unused_assignment", 2)]


def test_dotted_call_root_must_be_defined():
    code = 'ric.admit("s1")'
    findings = run_static_checks(parse_code(code), code)
    assert _ids(findings) == [("undefined_name", 1)]


def test_bare_call_targets_are_exempt_from_undefined_check():
    code = 'g = allocate_prb(4)\nreport(g)'
    findings = run_static_checks(parse_code(code), code)
    assert findings == []


def test_long_line_info():
    code = "import ric\nric.log(1)  #" + "x" * 120
    findings = run_static_checks(parse_code(code), code)
    assert _ids(findings) == [("line_too_long", 2)]
    assert findings[0].severity is Severity.INFO


def test_unparsed_region_warning():
    code = "import ric\n!!!\n???\nric.ping()"
    findings = run_static_checks(parse_code(code), code)
    assert _ids(findings) == [("unparsed_region", 2)]


def test_loop_variable_and_import_bindings_count_as_definitions():
    code = ("from ric import admit, slice_ids\n"
            "for sid in slice_ids:\n"
            "    admit(sid)")
    findings = run_static_checks(parse_code(code), code)
    assert findings == []


def test_external_linter_hook_merges_findings(tmp_path):
    script = tmp_path / "linter.py"
    script.write_text(
        "import json, sys\n"
        "print(json.dumps([{'rule_id': 'ext_rule', 'severity': 'error',"
        " 'message': 'boom', 'line': 1}]))\n")
    code = "import ric\nx = 1\nric.log(x)"
    findings = run_static_checks(parse_code(code), code,
                                 external_linter_cmd=f"python3 {script} {{file}}")
    assert ("ext_rule", 1) in _ids(findings)
    ext = [f for f in findings if f.rule_id == "ext_rule"][0]
    assert ext.dimension is Dimension.STATIC
    assert ext.severity is Severity.ERROR


def test_external_linter_crash_is_single_warning_not_failure():
    code = "import ric\nx = 1\nric.log(x)"
    findings = run_static_checks(parse_code(code), code,
                                 external_linter_cmd="false {file}")
    assert [f.rule_id for f in findings] == ["linter_unavailable"]
    assert findings[0].severity is Severity.WARNING
    assert findings[0].message == "external static hook failed: exited with status 1"


def test_external_hook_removes_its_temp_file(tmp_path, monkeypatch):
    hook_tmp = tmp_path / "tmp"
    hook_tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(hook_tmp))
    script = tmp_path / "hook.py"
    script.write_text("import json, sys\n"
                      "assert open(sys.argv[1]).read() == 'x = 1'\n"
                      "print(json.dumps([{'rule_id': 'probe', 'line': 1}]))\n")
    findings = run_external_hook("x = 1", f"python3 {script} {{file}}",
                                 Dimension.RUNTIME, "sandbox_unavailable")
    assert [(f.dimension, f.rule_id) for f in findings] == [(Dimension.RUNTIME, "probe")]
    assert list(hook_tmp.iterdir()) == []
    findings = run_external_hook("x = 1", "false {file}", Dimension.RUNTIME,
                                 "sandbox_unavailable")
    assert [(f.dimension, f.rule_id) for f in findings] == \
        [(Dimension.RUNTIME, "sandbox_unavailable")]
    assert findings[0].message == "external runtime hook failed: exited with status 1"
    assert "linter" not in findings[0].message
    assert list(hook_tmp.iterdir()) == []


# ── policy engine ────────────────────────────────────────────────────────────

def test_forbidden_call_direct_match():
    rules = PolicyRuleSet(forbidden_calls=("os.system",))
    code = "import os\nos.system('reboot')"
    findings = [f for f in enforce_policy(parse_code(code), rules)
                if f.rule_id == "forbidden_call"]
    assert len(findings) == 1
    assert findings[0].severity is Severity.CRITICAL
    assert findings[0].location == (2, 1)


def test_conflict_rule_same_scope_entity():
    rules = PolicyRuleSet(conflict_rules=(("admit", "reject", "slice"),))
    code = 'ric.admit("s1")\nric.reject("s1")'
    findings = enforce_policy(parse_code(code), rules)
    assert _ids(findings) == [("action_conflict", 2)]


def test_resource_cap_six_plus_seven_over_ten():
    rules = PolicyRuleSet(resource_caps=(("prb", 10),))
    code = 'ric.allocate_prb("s1", 6)\nric.allocate_prb("s2", 7)'
    findings = enforce_policy(parse_code(code), rules)
    assert _ids(findings) == [("resource_cap_exceeded", 2)]
    assert "13" in findings[0].message


def test_policy_corpus_exact_match():
    corpus = json.loads((DATA / "policy_corpus.json").read_text())
    raw = corpus["rules"]
    rules = PolicyRuleSet(
        forbidden_calls=tuple(raw["forbidden_calls"]),
        forbidden_imports=tuple(raw["forbidden_imports"]),
        conflict_rules=tuple((a, b, s) for a, b, s in raw["conflict_rules"]),
        resource_caps=tuple(sorted(raw["resource_caps"].items())),
    )
    assert len(corpus["cases"]) >= 20
    mismatches = []
    for case in corpus["cases"]:
        findings = enforce_policy(parse_code(case["code"]), rules)
        got = sorted((f.rule_id, f.location[0], f.severity.value) for f in findings)
        expected = sorted((e["rule_id"], e["line"], e["severity"])
                          for e in case["expected"])
        if got != expected:
            mismatches.append((case["name"], got, expected))
    assert not mismatches, mismatches


def test_policy_rules_validation():
    with pytest.raises(Exception):
        PolicyRuleSet(forbidden_calls=("",))
    with pytest.raises(Exception):
        PolicyRuleSet(resource_caps=(("prb", 0),))


def test_policy_rules_from_json(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({
        "forbidden_calls": ["eval"], "forbidden_imports": [],
        "conflict_rules": [["admit", "reject", "slice"]],
        "resource_caps": {"prb": 12}}))
    rules = PolicyRuleSet.from_json(path)
    assert rules.forbidden_calls == ("eval",)
    assert rules.resource_caps == (("prb", 12),)


# ── formal-lite ──────────────────────────────────────────────────────────────

def test_nondeterminism_warning_for_random_call():
    code = "r = random.random()\nric.log(r)"
    findings = formal_lite_check(parse_code(code), code)
    assert _ids(findings) == [("nondeterministic_call", 1)]
    assert findings[0].severity is Severity.WARNING


def test_fully_annotated_clean_code_has_no_formal_findings():
    code = ("def scale(x: int) -> int:\n"
            "    return x\n"
            "g = ric.allocate_prb('s1', 2)\n"
            "ric.log(g)")
    assert formal_lite_check(parse_code(code), code) == []


def test_fixture_with_all_three_formal_violations():
    code = ("def scale(x):\n"
            "    pass\n"
            "seed = random.random()\n"
            "ric.log(seed)\n"
            "try:\n"
            "    ric.ping()\n"
            "except:\n"
            "    pass")
    findings = formal_lite_check(parse_code(code), code)
    assert _ids(findings) == [("missing_annotations", 1),
                              ("nondeterministic_call", 3),
                              ("bare_except", 7)]


def test_annotation_check_requires_return_and_params():
    code = "def f(x: int):\n    pass"
    assert _ids(formal_lite_check(parse_code(code), code)) == \
        [("missing_annotations", 1)]
    code = "def g() -> None:\n    pass"
    assert formal_lite_check(parse_code(code), code) == []


def test_time_and_uuid_roots_flagged_through_aliases():
    code = "import time as t\nnow = t.monotonic()\nric.log(now)"
    findings = formal_lite_check(parse_code(code), code)
    assert _ids(findings) == [("nondeterministic_call", 2)]


# ── penalty aggregation ──────────────────────────────────────────────────────

def _finding(severity, dim=Dimension.STATIC, rule="r"):
    return Finding(dim, rule, severity, "msg")


def test_no_findings_scores_100():
    assert aggregate_penalty([]) == 100.0


def test_one_critical_two_errors_scores_40():
    findings = [_finding(Severity.CRITICAL), _finding(Severity.ERROR),
                _finding(Severity.ERROR)]
    assert aggregate_penalty(findings) == 40.0


def test_severity_overload_clamps_to_zero():
    findings = [_finding(Severity.CRITICAL)] * 4  # 120 > 100
    assert aggregate_penalty(findings) == 0.0


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        aggregate_penalty([], weights={s: 0.0 for s in Severity})


_SEVERITIES = st.sampled_from(list(Severity))
_DIMS = st.sampled_from(list(Dimension))
_FINDINGS = st.lists(
    st.builds(_finding, _SEVERITIES, _DIMS), max_size=30)


@settings(max_examples=1000)
@given(_FINDINGS)
def test_penalty_bounds_and_exact_formula(findings):
    score = aggregate_penalty(findings)
    assert 0.0 <= score <= 100.0
    raw = 100.0 - sum(DEFAULT_SEVERITY_WEIGHTS[f.severity] for f in findings)
    assert score == max(0.0, min(100.0, raw))


@settings(max_examples=1000)
@given(_FINDINGS, _SEVERITIES, _DIMS)
def test_penalty_monotone_under_finding_addition(findings, severity, dim):
    base = aggregate_penalty(findings)
    extended = aggregate_penalty(findings + [_finding(severity, dim)])
    assert extended <= base


# ── report construction ──────────────────────────────────────────────────────

def test_pass_flag_false_iff_error_or_worse():
    findings = [
        _finding(Severity.WARNING, Dimension.STATIC),
        _finding(Severity.ERROR, Dimension.POLICY),
        _finding(Severity.INFO, Dimension.RUNTIME),
        _finding(Severity.CRITICAL, Dimension.FORMAL),
    ]
    report = build_report(findings)
    assert report.passes[Dimension.STATIC] is True
    assert report.passes[Dimension.POLICY] is False
    assert report.passes[Dimension.RUNTIME] is True
    assert report.passes[Dimension.FORMAL] is False
    assert report.penalty_score == aggregate_penalty(findings)
    assert report.failed_dimensions() == [Dimension.POLICY, Dimension.FORMAL]


def test_report_round_trips_through_dict():
    report = build_report([_finding(Severity.ERROR, Dimension.RUNTIME, "kpi")])
    from gmas_harness.analyzer import AnalyzerReport
    assert AnalyzerReport.from_dict(report.to_dict()) == report
