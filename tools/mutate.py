"""Mutation run: does the test suite notice a small wrong change?

Each mutant changes one operator or literal of one target and runs in a
copy of the repository.  It is killed when ``convcheck verify --all
--format json`` no longer prints the unmutated bytes (or exits
otherwise), else when the tier-1 suite fails, else it survives.  A
survivor is either an equivalent mutant or a gap in the checks; read
each one.  Uses the standard library only, and is not part of tier-1.

The mutations (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978):

* ``+`` <-> ``-`` and ``*`` <-> ``//`` in a binary operation;
* a comparison to its opposite (``<`` <-> ``>=``, ``==`` <-> ``!=`` ...);
* ``and`` <-> ``or``, and ``is`` <-> ``is not``;
* an integer literal n to n + 1.

A target is a file under ``src/`` (every site in it) or
``file:Qualified.name`` (the sites inside that function or class).
``PER_TARGET`` sites are drawn from each of ``TARGETS`` with ``SEED``,
so every run judges the same mutants of the same source:

    python tools/mutate.py

A mutant's oracle run is cut, and the mutant killed as a hang, at
``TIMEOUT_FACTOR`` times the unmutated run's own time, and never
before ``TIMEOUT_FLOOR_S``.
"""

from __future__ import annotations

import ast
import hashlib
import io
import itertools
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from typing import List, NamedTuple, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TARGETS = (
    "src/convcheck/arith.py",
    "src/convcheck/identities/core.py",
    "src/convcheck/identities/notation.py",
    "src/convcheck/identities/core.py:_Chart.__init__",
    "src/convcheck/identities/core.py:_Chart.lift",
    "src/convcheck/identities/core.py:_Chart.image",
    "src/convcheck/arith.py:_bind",
    "src/convcheck/identities/notation.py:_side",
    "src/convcheck/identities/notation.py:_sum",
    "src/convcheck/arith.py:_substitute",
    "src/convcheck/arith.py:_split_row",
    "src/convcheck/identities/core.py:_point",
    "src/convcheck/identities/core.py:_check_range",
    "src/convcheck/identities/core.py:_compare_sides",
    "src/convcheck/identities/core.py:Context.power",
    "src/convcheck/arith.py:_power",
    "src/convcheck/sequences.py:_appell",
    "src/convcheck/arith.py:MultiPoly.__mul__",
    "src/convcheck/sequences.py:euler_number",
    "src/convcheck/sequences.py:_zigzag_numbers",
    "src/convcheck/sequences.py:_arctan_inverse",
    "src/convcheck/sequences.py:_pi_bounds",
    "src/convcheck/sequences.py:_rounded_power",
    "src/convcheck/sequences.py:_zeta_bounds",
    "src/convcheck/sequences.py:_beta_bounds",
    "src/convcheck/sequences.py:_pinned",
    "src/convcheck/sequences.py:_staudt_denominator",
    "src/convcheck/sequences.py:bernoulli_number",
    "src/convcheck/identities/notation.py:_clear",
    # the index-slot checks: the reader refuses a slot that _is_ring
    # finds a ring element, and _integer a value that is no integer
    "src/convcheck/identities/notation.py:_is_ring",
    "src/convcheck/identities/notation.py:_integer",
)
PER_TARGET = 8
SEED = 3
TIMEOUT_FACTOR = 4
TIMEOUT_FLOOR_S = 5.0

_SWAP = {"+": "-", "-": "+", "*": "//", "//": "*",
         "<": ">=", ">=": "<", ">": "<=", "<=": ">", "==": "!=", "!=": "==",
         "and": "or", "or": "and", "is": "is not", "is not": "is"}
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
        ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=", ast.Eq: "==", ast.NotEq: "!=",
        ast.And: "and", ast.Or: "or", ast.Is: "is", ast.IsNot: "is not"}


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    line: int
    col: int  # 1-based, in characters
    start: int  # offsets into the file's text
    end: int
    old: str
    new: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.old!r} -> {self.new!r}"


def _scope(tree: ast.AST, qualname: Optional[str]) -> ast.AST:
    """The node named by a dotted qualified name, or the module."""
    node = tree
    for name in qualname.split(".") if qualname else ():
        found = [child for child in ast.iter_child_nodes(node)
                 if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and child.name == name]
        if not found:
            raise SystemExit(f"no {qualname} in the target")
        node = found[0]
    return node


def sites(path: str, qualname: Optional[str] = None) -> List[Mutant]:
    """Every mutation site of a file, or of one function or class in it."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        text = fh.read()
    lines = [""] + text.splitlines(keepends=True)  # 1-based
    starts = list(itertools.accumulate(len(line) for line in lines[:-1]))
    starts.insert(0, 0)
    tree = ast.parse(text)

    def at(line: int, byte_col: int) -> Tuple[int, int]:
        # ast counts a column in UTF-8 bytes, tokenize in characters
        return line, len(lines[line].encode()[:byte_col].decode())

    # operators by position, so an operator is found between its operands;
    # ``is not`` is two tokens, read as one operator when one space apart
    ops = {}
    toks = list(tokenize.generate_tokens(io.StringIO(text).readline))
    for tok, after in zip(toks, toks[1:]):
        if tok.type in (tokenize.OP, tokenize.NAME) and tok.string in _SWAP:
            two = tok.string == "is" and after.string == "not" and after.start == (
                tok.end[0], tok.end[1] + 1)
            ops[tok.start] = "is not" if two else tok.string

    def between(a: ast.AST, b: ast.AST, op: str) -> Optional[Tuple[int, int]]:
        lo, hi = at(a.end_lineno, a.end_col_offset), at(b.lineno, b.col_offset)
        return min((p for p in ops if lo <= p < hi and ops[p] == op), default=None)

    found: List[Mutant] = []

    def add(pos: Optional[Tuple[int, int]], old: str, new: str) -> None:
        if pos is not None:
            start = starts[pos[0]] + pos[1]
            found.append(Mutant(path, pos[0], pos[1] + 1, start, start + len(old), old, new))

    for node in ast.walk(_scope(tree, qualname)):
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            op = _OPS[type(node.op)]
            add(between(node.left, node.right, op), op, _SWAP[op])
        elif isinstance(node, ast.Compare):
            for a, op_node, b in zip([node.left] + node.comparators, node.ops, node.comparators):
                if type(op_node) in _OPS:
                    op = _OPS[type(op_node)]
                    add(between(a, b, op), op, _SWAP[op])
        elif isinstance(node, ast.BoolOp):
            op = _OPS[type(node.op)]
            for a, b in zip(node.values, node.values[1:]):
                add(between(a, b, op), op, _SWAP[op])
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            (line, col), end = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            old = text[starts[line] + col:starts[end[0]] + end[1]]
            if old.isdigit():
                add((line, col), old, str(node.value + 1))
    return sorted(set(found), key=lambda m: m.start)


def _copy(dest: str) -> None:
    """The repository's files as git lists them (tracked and untracked,
    ignored ones left out), copied to dest."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, names):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def _env(tree: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def digest(tree: str, timeout: Optional[float]) -> Tuple[int, str]:
    """(exit status, sha256 of stdout) of verify --all --format json."""
    got = subprocess.run([sys.executable, "-m", "convcheck.cli", "verify", "--all", "--format", "json"],
                         cwd=tree, env=_env(tree), capture_output=True, timeout=timeout)
    return got.returncode, hashlib.sha256(got.stdout).hexdigest()


def tier1(tree: str, timeout: Optional[float]) -> bool:
    """Whether the tier-1 suite passes in tree."""
    got = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                         cwd=tree, env=_env(tree), capture_output=True, timeout=timeout)
    return got.returncode == 0


class Baseline(NamedTuple):
    """The unmutated tree's digest, and each oracle's time limit for a mutant."""
    digest: Tuple[int, str]
    digest_timeout: float
    tier1_timeout: float


def timeout_for(seconds: float) -> float:
    """A mutant's limit for an oracle whose unmutated run took seconds."""
    return max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * seconds)


def baseline(tree: str) -> Optional[Baseline]:
    """The unmutated oracles' results and limits; None if tier-1 fails."""
    start = time.perf_counter()
    want = digest(tree, None)
    middle = time.perf_counter()
    passed = tier1(tree, None)
    end = time.perf_counter()
    return Baseline(want, timeout_for(middle - start), timeout_for(end - middle)) if passed else None


def judge(mutant: Mutant, tree: str, base: Baseline) -> str:
    """'digest', 'tier-1', 'timeout' (each a kill) or 'survived'."""
    path = os.path.join(tree, mutant.path)
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original[:mutant.start] + mutant.new + original[mutant.end:])
        if digest(tree, base.digest_timeout) != base.digest:
            return "digest"
        return "survived" if tier1(tree, base.tier1_timeout) else "tier-1"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)


def draw() -> List[Mutant]:
    """The mutants of a run: PER_TARGET sites of each target, drawn with SEED."""
    rng = random.Random(SEED)
    mutants: List[Mutant] = []
    for target in TARGETS:
        path, _, qualname = target.partition(":")
        pool = [m for m in sites(path, qualname or None) if m not in mutants]
        mutants.extend(sorted(rng.sample(pool, min(PER_TARGET, len(pool))), key=lambda m: m.start))
    return mutants


def main() -> int:
    mutants = draw()
    tree = tempfile.mkdtemp(prefix="convcheck-mutate-")
    try:
        _copy(tree)
        base = baseline(tree)
        if base is None:
            print("the unmutated tier-1 suite fails; no mutant can be judged", file=sys.stderr)
            return 2
        print(f"time limits: verify {base.digest_timeout:.1f} s, tier-1 {base.tier1_timeout:.1f} s",
              flush=True)
        verdicts = []
        for m in mutants:
            verdict = judge(m, tree, base)
            verdicts.append(verdict)
            print(f"{verdict:8}  {m.describe()}", flush=True)
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    survived = verdicts.count("survived")
    print(f"{len(mutants)} mutants: {len(mutants) - survived} killed "
          f"(digest {verdicts.count('digest')}, tier-1 {verdicts.count('tier-1')}, "
          f"timeout {verdicts.count('timeout')}), {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
