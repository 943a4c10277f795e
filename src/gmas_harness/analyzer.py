"""Multi-dimension validation of generated code.

parse_code recognizes a restricted imperative grammar (imports, dotted
calls, single-target assignments, if/for blocks by indentation) and never
fails: unrecognized lines are collected as unparsed regions. Static,
policy, and formal-lite rule packs walk the tree; findings aggregate into
a 0-100 penalty score where lower means more severe issues.
"""

from __future__ import annotations

import json
import logging
import re
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import ConfigurationError, ValidationError

logger = logging.getLogger(__name__)


class Dimension(str, Enum):
    STATIC = "static"
    POLICY = "policy"
    RUNTIME = "runtime"
    FORMAL = "formal"


class Severity(str, Enum):
    INFO = "info"
    WARNING = "warning"
    ERROR = "error"
    CRITICAL = "critical"


SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1,
                 Severity.ERROR: 2, Severity.CRITICAL: 3}

DEFAULT_SEVERITY_WEIGHTS = {Severity.INFO: 1.0, Severity.WARNING: 5.0,
                            Severity.ERROR: 15.0, Severity.CRITICAL: 30.0}


@dataclass(frozen=True)
class Finding:
    dimension: Dimension
    rule_id: str
    severity: Severity
    message: str
    location: tuple[int, int] | None = None  # (line, column), 1-based

    def to_dict(self) -> dict:
        return {"dimension": self.dimension.value, "rule_id": self.rule_id,
                "severity": self.severity.value, "message": self.message,
                "location": list(self.location) if self.location else None}

    @classmethod
    def from_dict(cls, d: dict) -> "Finding":
        loc = tuple(d["location"]) if d.get("location") else None
        return cls(Dimension(d["dimension"]), d["rule_id"], Severity(d["severity"]),
                   d["message"], loc)


# ── expression and statement model ───────────────────────────────────────────

@dataclass(frozen=True)
class Name:
    dotted: str

    @property
    def root(self) -> str:
        return self.dotted.split(".", 1)[0]


@dataclass(frozen=True)
class Literal:
    value: int | float | str


@dataclass(frozen=True)
class Call:
    dotted: str
    args: tuple = ()

    @property
    def root(self) -> str:
        return self.dotted.split(".", 1)[0]

    @property
    def last(self) -> str:
        return self.dotted.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class OpChain:
    """Flat left-to-right operator chain; precedence is irrelevant to the checks."""

    operands: tuple
    ops: tuple[str, ...]


class StatementKind(str, Enum):
    IMPORT = "import"
    CALL = "call"
    ASSIGN = "assign"
    CONDITIONAL = "conditional"
    LOOP = "loop"
    OTHER = "other"


@dataclass
class Statement:
    kind: StatementKind
    line: int
    raw: str
    dotted_name: str | None = None   # import path / call path / assign target
    args: tuple | None = None        # call argument expressions
    expr: object | None = None       # RHS / condition / iterable expression
    loop_var: str | None = None
    bindings: tuple[tuple[str, str], ...] = ()  # (local name, dotted path) from imports
    children: list["Statement"] = field(default_factory=list)


@dataclass
class CodeSyntaxTree:
    statements: list[Statement]
    unparsed_regions: list[tuple[int, int]]     # inclusive 1-based line ranges
    source_lines: list[str]
    flat: list[Statement] = field(default_factory=list)  # all statements, source order


# ── expression parsing ───────────────────────────────────────────────────────

class _ExprError(Exception):
    pass


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)
  | (?P<num>\d+\.\d*|\.\d+|\d+)
  | (?P<str>"[^"\n]*"|'[^'\n]*')
  | (?P<op><=|>=|==|!=|[+\-*/%<>])
  | (?P<punct>[(),])
""", re.VERBOSE)

_WORD_OPS = {"and", "or", "not", "in"}


def _tokenize_expr(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise _ExprError(f"bad character at column {pos + 1}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        value = m.group()
        if kind == "name" and value in _WORD_OPS:
            tokens.append(("op", value))
        else:
            tokens.append((kind, value))
    return tokens


class _ExprParser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        expr = self.parse_chain()
        if self.pos != len(self.tokens):
            raise _ExprError("trailing tokens")
        return expr

    def parse_chain(self):
        operands = [self.parse_operand()]
        ops = []
        while self.peek()[0] == "op":
            ops.append(self.take()[1])
            operands.append(self.parse_operand())
        if not ops:
            return operands[0]
        return OpChain(tuple(operands), tuple(ops))

    def parse_operand(self):
        kind, value = self.peek()
        if kind == "op" and value in ("-", "not"):
            self.take()
            inner = self.parse_operand()
            if value == "-" and isinstance(inner, Literal) and \
                    isinstance(inner.value, (int, float)):
                return Literal(-inner.value)
            return OpChain((inner,), (value,))
        if kind == "num":
            self.take()
            return Literal(float(value) if "." in value else int(value))
        if kind == "str":
            self.take()
            return Literal(value[1:-1])
        if kind == "punct" and value == "(":
            self.take()
            inner = self.parse_chain()
            if self.take() != ("punct", ")"):
                raise _ExprError("unbalanced parenthesis")
            return inner
        if kind == "name":
            self.take()
            if self.peek() == ("punct", "("):
                self.take()
                args = []
                if self.peek() != ("punct", ")"):
                    args.append(self.parse_chain())
                    while self.peek() == ("punct", ","):
                        self.take()
                        args.append(self.parse_chain())
                if self.take() != ("punct", ")"):
                    raise _ExprError("unbalanced call")
                return Call(value, tuple(args))
            return Name(value)
        raise _ExprError(f"unexpected token {value!r}")


def _parse_expr(text: str):
    return _ExprParser(_tokenize_expr(text)).parse()


def _walk_expr(expr):
    yield expr
    if isinstance(expr, Call):
        for arg in expr.args:
            yield from _walk_expr(arg)
    elif isinstance(expr, OpChain):
        for operand in expr.operands:
            yield from _walk_expr(operand)


# ── statement parsing ────────────────────────────────────────────────────────

def _strip_trailing_comment(text: str) -> str:
    quote = None
    for i, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "#":
            return text[:i].rstrip()
    return text


_IMPORT_RE = re.compile(r"^import\s+([A-Za-z_][\w.]*)(?:\s+as\s+([A-Za-z_]\w*))?$")
_FROM_RE = re.compile(r"^from\s+([A-Za-z_][\w.]*)\s+import\s+(.+)$")
_FROM_NAME_RE = re.compile(r"^([A-Za-z_]\w*)(?:\s+as\s+([A-Za-z_]\w*))?$")
_ASSIGN_RE = re.compile(r"^([A-Za-z_]\w*)\s*=\s*(.+)$")
_IF_RE = re.compile(r"^(?:if|elif)\s+(.+):$")
_ELSE_RE = re.compile(r"^else\s*:$")
_FOR_RE = re.compile(r"^for\s+([A-Za-z_]\w*)\s+in\s+(.+):$")


def _indent_of(line: str) -> int:
    expanded = line.expandtabs(4)
    return len(expanded) - len(expanded.lstrip(" "))


def _calls_in(expr) -> list[Call]:
    return [node for node in _walk_expr(expr) if isinstance(node, Call)]


def _call_children(calls: list[Call], line: int, raw: str) -> list[Statement]:
    """Materialize embedded Call expressions as child call statements."""
    return [Statement(kind=StatementKind.CALL, line=line, raw=raw,
                      dotted_name=c.dotted, args=c.args) for c in calls]


class _Parser:
    def __init__(self, code: str):
        self.lines = code.split("\n")
        self.covered = [False] * len(self.lines)
        self.flat: list[Statement] = []

    def parse(self) -> CodeSyntaxTree:
        statements, _ = self._block(0, 0)
        regions = self._regions()
        return CodeSyntaxTree(statements=statements, unparsed_regions=regions,
                              source_lines=self.lines, flat=self.flat)

    def _skippable(self, i: int) -> bool:
        stripped = self.lines[i].strip()
        return not stripped or stripped.startswith("#")

    def _block(self, start: int, indent: int) -> tuple[list[Statement], int]:
        stmts: list[Statement] = []
        i = start
        while i < len(self.lines):
            if self._skippable(i):
                self.covered[i] = True
                i += 1
                continue
            cur = _indent_of(self.lines[i])
            if cur < indent:
                break
            if cur > indent:
                i += 1  # stray deep indent: leave uncovered -> unparsed region
                continue
            node, i = self._statement(i, indent)
            if node is not None:
                stmts.append(node)
        return stmts, i

    def _statement(self, i: int, indent: int) -> tuple[Statement | None, int]:
        raw = _strip_trailing_comment(self.lines[i].strip())
        line_no = i + 1

        m = _IMPORT_RE.match(raw)
        if m:
            dotted, alias = m.group(1), m.group(2)
            bound = alias if alias else dotted.split(".", 1)[0]
            stmt = Statement(kind=StatementKind.IMPORT, line=line_no, raw=raw,
                             dotted_name=dotted, bindings=((bound, dotted),))
            return self._accept(stmt, i)

        m = _FROM_RE.match(raw)
        if m:
            base, names = m.group(1), m.group(2)
            bindings = []
            for part in names.split(","):
                nm = _FROM_NAME_RE.match(part.strip())
                if not nm:
                    return None, i + 1
                name, alias = nm.group(1), nm.group(2)
                bindings.append((alias or name, f"{base}.{name}"))
            stmt = Statement(kind=StatementKind.IMPORT, line=line_no, raw=raw,
                             dotted_name=base, bindings=tuple(bindings))
            return self._accept(stmt, i)

        m = _FOR_RE.match(raw)
        if m:
            try:
                iterable = _parse_expr(m.group(2))
            except _ExprError:
                return None, i + 1
            stmt = Statement(kind=StatementKind.LOOP, line=line_no, raw=raw,
                             loop_var=m.group(1), expr=iterable)
            return self._accept_block(stmt, i, indent)

        m = _IF_RE.match(raw)
        if m:
            try:
                cond = _parse_expr(m.group(1))
            except _ExprError:
                return None, i + 1
            stmt = Statement(kind=StatementKind.CONDITIONAL, line=line_no, raw=raw,
                             expr=cond)
            return self._accept_block(stmt, i, indent)

        if _ELSE_RE.match(raw):
            stmt = Statement(kind=StatementKind.CONDITIONAL, line=line_no, raw=raw)
            return self._accept_block(stmt, i, indent)

        m = _ASSIGN_RE.match(raw)
        if m and not raw.startswith(("if ", "for ", "elif ")):
            try:
                rhs = _parse_expr(m.group(2))
            except _ExprError:
                return None, i + 1
            stmt = Statement(kind=StatementKind.ASSIGN, line=line_no, raw=raw,
                             dotted_name=m.group(1), expr=rhs)
            stmt.children = _call_children(_calls_in(rhs), line_no, raw)
            return self._accept(stmt, i)

        try:
            expr = _parse_expr(raw)
        except _ExprError:
            return None, i + 1
        if isinstance(expr, Call):
            nested = [c for arg in expr.args for c in _calls_in(arg)]
            stmt = Statement(kind=StatementKind.CALL, line=line_no, raw=raw,
                             dotted_name=expr.dotted, args=expr.args, expr=expr)
            stmt.children = _call_children(nested, line_no, raw)
            return self._accept(stmt, i)
        return None, i + 1

    def _accept(self, stmt: Statement, i: int) -> tuple[Statement, int]:
        self.covered[i] = True
        self.flat.append(stmt)
        return stmt, i + 1

    def _accept_block(self, stmt: Statement, i: int, indent: int) -> tuple[Statement, int]:
        self.covered[i] = True
        self.flat.append(stmt)
        j = i + 1
        while j < len(self.lines) and self._skippable(j):
            j += 1
        if j < len(self.lines):
            child_indent = _indent_of(self.lines[j])
            if child_indent > indent:
                children, end = self._block(i + 1, child_indent)
                stmt.children = children
                return stmt, end
        return stmt, i + 1

    def _regions(self) -> list[tuple[int, int]]:
        regions = []
        start = None
        for idx, done in enumerate(self.covered):
            if not done and start is None:
                start = idx + 1
            elif done and start is not None:
                regions.append((start, idx))
                start = None
        if start is not None:
            regions.append((start, len(self.covered)))
        return regions


def parse_code(code: str) -> CodeSyntaxTree:
    """Total parse of the restricted grammar; never raises."""
    return _Parser(code).parse()


def iter_calls(tree: CodeSyntaxTree):
    """Yield (Call expr, line) for every call anywhere in the tree."""
    for stmt in tree.flat:
        if stmt.expr is not None:
            for node in _walk_expr(stmt.expr):
                if isinstance(node, Call):
                    yield node, stmt.line


def _import_bindings(tree: CodeSyntaxTree) -> dict[str, str]:
    bindings: dict[str, str] = {}
    for stmt in tree.flat:
        for local, dotted in stmt.bindings:
            bindings[local] = dotted
    return bindings


def _expand_dotted(dotted: str, bindings: dict[str, str]) -> str:
    root, _, rest = dotted.partition(".")
    if root in bindings:
        expanded = bindings[root]
        return expanded + ("." + rest if rest else "")
    return dotted


# ── static checks ────────────────────────────────────────────────────────────

_BUILTIN_NAMES = {"True", "False", "None", "range", "len", "min", "max", "abs",
                  "sum", "print", "int", "float", "str", "round"}

MAX_LINE_LEN = 120


def _uses_and_defs(tree: CodeSyntaxTree):
    """(name, line) pairs for value uses and for definitions, in source order."""
    uses: list[tuple[str, int]] = []
    defs: list[tuple[str, int]] = []
    for stmt in tree.flat:
        for local, _ in stmt.bindings:
            defs.append((local, stmt.line))
        if stmt.kind == StatementKind.ASSIGN and stmt.dotted_name:
            defs.append((stmt.dotted_name, stmt.line))
        if stmt.loop_var:
            defs.append((stmt.loop_var, stmt.line))
        if stmt.expr is not None:
            for node in _walk_expr(stmt.expr):
                if isinstance(node, Name):
                    uses.append((node.root, stmt.line))
                elif isinstance(node, Call) and "." in node.dotted:
                    uses.append((node.root, stmt.line))
    return uses, defs


def run_static_checks(tree: CodeSyntaxTree, code: str,
                      external_linter_cmd: str | None = None) -> list[Finding]:
    """Built-in lint rules plus the optional external linter hook."""
    findings: list[Finding] = []
    uses, defs = _uses_and_defs(tree)

    defined_by_line: dict[str, int] = {}
    for name, line in sorted(defs, key=lambda d: d[1]):
        defined_by_line.setdefault(name, line)
    for name, line in uses:
        if name in _BUILTIN_NAMES:
            continue
        first_def = defined_by_line.get(name)
        if first_def is None or first_def > line:
            findings.append(Finding(Dimension.STATIC, "undefined_name", Severity.ERROR,
                                    f"name '{name}' used before any definition",
                                    (line, 1)))

    use_lines: dict[str, list[int]] = {}
    for name, line in uses:
        use_lines.setdefault(name, []).append(line)
    assign_lines: dict[str, list[int]] = {}
    for stmt in tree.flat:
        if stmt.kind == StatementKind.ASSIGN and stmt.dotted_name:
            assign_lines.setdefault(stmt.dotted_name, []).append(stmt.line)
    for stmt in tree.flat:
        if stmt.kind == StatementKind.ASSIGN and stmt.dotted_name:
            name = stmt.dotted_name
            later_assigns = [ln for ln in assign_lines[name] if ln > stmt.line]
            # a read on the re-assignment line itself still reads the old value
            horizon = min(later_assigns) if later_assigns else float("inf")
            read = any(stmt.line < ln <= horizon for ln in use_lines.get(name, []))
            if not read:
                findings.append(Finding(Dimension.STATIC, "unused_assignment",
                                        Severity.WARNING,
                                        f"'{name}' assigned but never read",
                                        (stmt.line, 1)))

    for idx, line in enumerate(tree.source_lines):
        if len(line) > MAX_LINE_LEN:
            findings.append(Finding(Dimension.STATIC, "line_too_long", Severity.INFO,
                                    f"line has {len(line)} chars (max {MAX_LINE_LEN})",
                                    (idx + 1, MAX_LINE_LEN + 1)))

    for start, end in tree.unparsed_regions:
        findings.append(Finding(Dimension.STATIC, "unparsed_region", Severity.WARNING,
                                f"lines {start}-{end} not in the restricted grammar",
                                (start, 1)))

    findings.sort(key=_static_order)
    return merge_external_lint(findings, code, external_linter_cmd)


def _static_order(finding: Finding):
    return finding.location or (0, 0), finding.rule_id


def merge_external_lint(static: list[Finding] | tuple[Finding, ...], code: str,
                        external_linter_cmd: str | None) -> list[Finding]:
    """``static``, the sorted built-in static findings, with the external
    linter's findings merged in by location and rule; the sort is stable, so
    a linter finding follows the built-in ones it ties with. Without a
    linter, a copy of ``static``."""
    findings = list(static)
    if external_linter_cmd:
        findings.extend(run_external_hook(code, external_linter_cmd, Dimension.STATIC,
                                          "linter_unavailable"))
        findings.sort(key=_static_order)
    return findings


def run_external_hook(code: str, cmd_template: str, dimension: Dimension,
                      unavailable_rule: str) -> list[Finding]:
    """Run `cmd_template` with {file} naming a temp file that holds `code`.

    The command prints a JSON finding array; its findings get `dimension`.
    A crash or unreadable output is one `unavailable_rule` warning, never a
    run failure. The temp file is removed either way.
    """
    import subprocess  # only hooks need it; it loads selectors
    path = None
    try:
        with tempfile.NamedTemporaryFile("w", suffix=".code", delete=False) as handle:
            path = Path(handle.name)
            handle.write(code)
        cmd = cmd_template.format(file=path)
        proc = subprocess.run(cmd, shell=True, capture_output=True, text=True,
                              timeout=30)
        if proc.returncode != 0:
            raise RuntimeError(f"exited with status {proc.returncode}")
        raw = json.loads(proc.stdout)
        return [Finding(dimension, item["rule_id"],
                        Severity(item.get("severity", "warning")),
                        item.get("message", ""),
                        (int(item["line"]), 1) if item.get("line") else None)
                for item in raw]
    except Exception as exc:                      # hook crash is never a run failure
        logger.warning("external %s hook failed: %s", dimension.value, exc)
        return [Finding(dimension, unavailable_rule, Severity.WARNING,
                        f"external {dimension.value} hook failed: {exc}")]
    finally:
        if path is not None:
            path.unlink(missing_ok=True)


# ── policy compliance ────────────────────────────────────────────────────────

@dataclass(frozen=True)
class PolicyRuleSet:
    forbidden_calls: tuple[str, ...] = ()
    forbidden_imports: tuple[str, ...] = ()
    conflict_rules: tuple[tuple[str, str, str], ...] = ()  # (action_a, action_b, scope)
    resource_caps: tuple[tuple[str, float], ...] = ()      # (resource, max)

    def __post_init__(self):
        for path in self.forbidden_calls + self.forbidden_imports:
            if not path:
                raise ConfigurationError("forbidden paths must be non-empty")
        for _, cap in self.resource_caps:
            if cap <= 0:
                raise ConfigurationError("resource caps must be positive")

    @classmethod
    def from_json(cls, path: str | Path) -> "PolicyRuleSet":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            forbidden_calls=tuple(raw.get("forbidden_calls", [])),
            forbidden_imports=tuple(raw.get("forbidden_imports", [])),
            conflict_rules=tuple((r[0], r[1], r[2]) for r in raw.get("conflict_rules", [])),
            resource_caps=tuple(sorted(raw.get("resource_caps", {}).items())),
        )


def _path_matches(dotted: str, forbidden: str) -> bool:
    return dotted == forbidden or dotted.startswith(forbidden + ".")


def _first_entity(args: tuple) -> str | None:
    for arg in args:
        if isinstance(arg, Literal) and isinstance(arg.value, str):
            return arg.value
    for arg in args:
        if isinstance(arg, Name):
            return arg.dotted
    return None


def _first_int(args: tuple) -> int | None:
    for arg in args:
        if isinstance(arg, Literal) and isinstance(arg.value, int):
            return arg.value
    return None


def enforce_policy(tree: CodeSyntaxTree, rules: PolicyRuleSet) -> list[Finding]:
    """Forbidden imports/calls, action conflicts over shared entities, resource caps."""
    findings: list[Finding] = []
    bindings = _import_bindings(tree)

    for stmt in tree.flat:
        if stmt.kind != StatementKind.IMPORT:
            continue
        targets = [dotted for _, dotted in stmt.bindings] or [stmt.dotted_name or ""]
        for target in targets:
            for forbidden in rules.forbidden_imports:
                if _path_matches(target, forbidden):
                    findings.append(Finding(
                        Dimension.POLICY, "forbidden_import", Severity.CRITICAL,
                        f"import of '{target}' is forbidden ({forbidden})",
                        (stmt.line, 1)))

    calls = [(call, line) for call, line in iter_calls(tree)]
    for call, line in calls:
        expanded = _expand_dotted(call.dotted, bindings)
        for forbidden in rules.forbidden_calls:
            if _path_matches(expanded, forbidden):
                findings.append(Finding(
                    Dimension.POLICY, "forbidden_call", Severity.CRITICAL,
                    f"call to '{expanded}' is forbidden ({forbidden})",
                    (line, 1)))

    for action_a, action_b, scope in rules.conflict_rules:
        seen_a: dict[str, int] = {}
        seen_b: dict[str, int] = {}
        for call, line in calls:
            entity = _first_entity(call.args or ())
            if entity is None:
                continue
            if call.last in (action_a, f"{action_a}_{scope}"):
                seen_a.setdefault(entity, line)
            if call.last in (action_b, f"{action_b}_{scope}"):
                seen_b.setdefault(entity, line)
        for entity in sorted(set(seen_a) & set(seen_b)):
            line = max(seen_a[entity], seen_b[entity])
            findings.append(Finding(
                Dimension.POLICY, "action_conflict", Severity.ERROR,
                f"'{action_a}' and '{action_b}' both target {scope} '{entity}'",
                (line, 1)))

    for resource, cap in rules.resource_caps:
        total = 0
        last_line = None
        for call, line in calls:
            if call.last == f"allocate_{resource}":
                value = _first_int(call.args or ())
                if value is not None:
                    total += value
                    last_line = line
        if last_line is not None and total > cap:
            findings.append(Finding(
                Dimension.POLICY, "resource_cap_exceeded", Severity.ERROR,
                f"allocated {total} {resource} exceeds cap {cap:g}",
                (last_line, 1)))

    findings.sort(key=lambda f: (f.location or (0, 0), f.rule_id, f.message))
    return findings


# ── formal-lite checks ───────────────────────────────────────────────────────

_DEF_RE = re.compile(r"^\s*def\s+(\w+)\s*\((.*)\)\s*(->\s*[^:]+)?:\s*$")
_BARE_EXCEPT_RE = re.compile(r"^\s*except\s*:\s*$")

NONDETERMINISM_ROOTS = {"random", "time", "uuid"}


def _def_fully_annotated(params: str, has_return: bool) -> bool:
    if not has_return:
        return False
    params = params.strip()
    if not params:
        return True
    depth = 0
    parts, buf = [], []
    for ch in params:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return all(":" in p for p in parts if p.strip())


def formal_lite_check(tree: CodeSyntaxTree, code: str) -> list[Finding]:
    """Annotation coverage, bare exception handlers, nondeterminism sources."""
    findings: list[Finding] = []
    for idx, line in enumerate(code.split("\n")):
        m = _DEF_RE.match(line)
        if m and not _def_fully_annotated(m.group(2), m.group(3) is not None):
            findings.append(Finding(Dimension.FORMAL, "missing_annotations",
                                    Severity.INFO,
                                    f"function '{m.group(1)}' lacks full annotations",
                                    (idx + 1, 1)))
        if _BARE_EXCEPT_RE.match(line):
            findings.append(Finding(Dimension.FORMAL, "bare_except", Severity.WARNING,
                                    "bare exception handler swallows all errors",
                                    (idx + 1, 1)))
    bindings = _import_bindings(tree)
    for call, line in iter_calls(tree):
        expanded = _expand_dotted(call.dotted, bindings)
        if expanded.split(".", 1)[0] in NONDETERMINISM_ROOTS:
            findings.append(Finding(Dimension.FORMAL, "nondeterministic_call",
                                    Severity.WARNING,
                                    f"call to '{expanded}' is a nondeterminism source",
                                    (line, 1)))
    findings.sort(key=lambda f: (f.location or (0, 0), f.rule_id))
    return findings


# ── aggregation ──────────────────────────────────────────────────────────────

def aggregate_penalty(findings: list[Finding],
                      weights: dict[Severity, float] | None = None) -> float:
    """clamp(100 - sum of severity weights, 0, 100); lower = more severe issues."""
    weights = weights or DEFAULT_SEVERITY_WEIGHTS
    if any(w <= 0 for w in weights.values()):
        raise ValueError("severity weights must be positive")
    total = sum(weights[f.severity] for f in findings)
    return max(0.0, min(100.0, 100.0 - total))


@dataclass(frozen=True)
class AnalyzerReport:
    findings: tuple[Finding, ...]
    passes: dict  # Dimension -> bool
    penalty_score: float

    def failed_dimensions(self) -> list[Dimension]:
        return [d for d in Dimension if not self.passes[d]]

    def to_dict(self) -> dict:
        return {"findings": [f.to_dict() for f in self.findings],
                "passes": {d.value: self.passes[d] for d in Dimension},
                "penalty_score": self.penalty_score}

    @classmethod
    def from_dict(cls, d: dict) -> "AnalyzerReport":
        findings = tuple(Finding.from_dict(f) for f in d["findings"])
        passes = {Dimension(k): v for k, v in d["passes"].items()}
        missing = [dim.value for dim in Dimension if dim not in passes]
        if missing:
            raise ValidationError(f"analyzer_report passes lack {missing}")
        return cls(findings, passes, d["penalty_score"])


def build_report(findings: list[Finding],
                 weights: dict[Severity, float] | None = None) -> AnalyzerReport:
    """Pass flag is false iff the dimension has a finding of severity >= error."""
    passes = {}
    for dim in Dimension:
        bad = [f for f in findings
               if f.dimension == dim and SEVERITY_RANK[f.severity] >= SEVERITY_RANK[Severity.ERROR]]
        passes[dim] = not bad
    return AnalyzerReport(findings=tuple(findings), passes=passes,
                          penalty_score=aggregate_penalty(findings, weights))
