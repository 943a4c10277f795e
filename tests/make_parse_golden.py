"""Generate the committed parse golden: the statements and unparsed regions
``parse_code`` gives for a fixed set of seeded programs.

Run from the repository root:

    python3 tests/make_parse_golden.py

The programs mix hand-written edge cases with random ones drawn from a bank
of grammar and non-grammar lines at random indents, some written with tabs.
``tests/test_analyzer.py`` asserts that ``parse_code`` still gives what the
file records, so any drift in the coverage rule, which moves
``unparsed_region`` warnings and with them penalties, shows up as a diff.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from gmas_harness.analyzer import parse_code  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "parse_golden.json"
SEED = 19
PROGRAMS = 500

# Each covers one shape of the coverage rule.
EDGE_CASES = (
    "if x > 1:",                                  # opener at end of file
    "for sid in slice_ids:\n\n   \n",             # opener followed only by blanks
    "if a:\n    ric.admit(a)\nelse:",             # else without a body
    "if a:\n    b = 1\nelse:\nric.log(a)",        # else whose next line is not deeper
    "if a:\n        b = 1\n    c = 2\nd = 3",     # dedent to an intermediate indent
    "for i in s:\n    if i > 2:\n        ric.admit(i)\n    ric.log(i)\nric.done()",
    "if a:\n\tric.admit(a)\n    ric.log(a)",      # a tab and four spaces are one indent
    "if a:\n  \tric.admit(a)\n\t\tric.log(a)",    # a stray line deeper than its block
    "  import ric\nimport os",                    # a deep first line
    "x = 1\n    y = 2\nric.log(x)",               # a stray line without an opener
    "if ?? :\n    ric.admit(a)\nric.log(a)",      # an opener outside the grammar
    "# heading\n\nimport ric  # trailing\n",      # comments and blank lines
    "if a:\n    # note\n\n    b = 1",             # blanks before the first body line
)

GRAMMAR = (
    "import ric", "import os.path as p", "import time as t",
    "from math import sqrt, floor as fl", "from ric import admit, slice_ids",
    "x = 1", "y = x + 2 * z", "total = budget - grant", "n = -3.5",
    'grant = ric.allocate_prb("s1", 6)', "ok = not flag and (a or b)",
    "s = 'a # b'  # comment", 'ric.admit("s1")', "ric.report(sqrt(total))",
    "os.system('reboot')", "seed = random.random()", "now = t.monotonic()",
    "admit(sid)", "ric.log(x, y in z)",
)
OPENERS = (
    "if budget > 10:", "elif x == 2:", "else:", "else :", "for sid in slice_ids:",
    "for i in range(3):", "if ric.ok(x):", "if not done:",
)
OUTSIDE = (
    "launch missiles!!!", "?? not code ??", "def f(x):", "return x", "try:",
    "except:", "x += 1", "if x > :", "for in x:", "print x", "x = (1", "a.b", "42",
    "while True:", "x = y = 1", "from ric import a b",
)
BLANKS = ("", "   ", "\t", "# note", "    # indented comment")


def _render(indent: int, rng: random.Random) -> str:
    """Whitespace that ``expandtabs(4)`` widens to ``indent`` columns."""
    roll = rng.random()
    if roll < 0.6 or indent < 4:
        return " " * indent
    if roll < 0.8:
        return "\t" * (indent // 4) + " " * (indent % 4)
    return "  \t" + "\t" * (indent // 4 - 1) + " " * (indent % 4)


def _program(rng: random.Random) -> str:
    lines = []
    blocks = [0]        # indents of the blocks the generator believes open
    opened = False
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(BLANKS))
            continue
        if opened and rng.random() < 0.8:
            blocks.append(blocks[-1] + rng.choice((1, 2, 4, 4, 8)))
        elif roll < 0.2 and len(blocks) > 1:
            del blocks[rng.randrange(1, len(blocks)):]
        indent = blocks[-1]
        if roll > 0.93:
            indent += rng.choice((1, 2, 4))                 # stray deep line
        elif roll > 0.88 and len(blocks) > 1:
            indent = (blocks[-2] + blocks[-1] + 1) // 2     # between two blocks
        bank = rng.choices((GRAMMAR, OPENERS, OUTSIDE), weights=(6, 3, 1))[0]
        text = rng.choice(bank)
        opened = bank is OPENERS
        lines.append(_render(indent, rng) + text)
    return "\n".join(lines) + ("\n" if rng.random() < 0.3 else "")


def programs() -> list[str]:
    rng = random.Random(SEED)
    return list(EDGE_CASES) + [_program(rng) for _ in range(PROGRAMS - len(EDGE_CASES))]


def describe(source: str) -> dict:
    """What ``parse_code(source)`` gives, in JSON types."""
    tree = parse_code(source)
    return {"source": source,
            "statements": [[s.kind.value, s.line, s.dotted_name, repr(s.expr),
                            s.loop_var, [list(b) for b in s.bindings]]
                           for s in tree.statements],
            "regions": [list(region) for region in tree.unparsed_regions]}


def main() -> None:
    entries = [json.dumps(describe(source), sort_keys=True) for source in programs()]
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(entries) + "\n]\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
