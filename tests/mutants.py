"""Seeded comparison mutants: flip one comparison operator at a time in a
scratch copy of the checkout and run a test command on each mutant.

    python tests/mutants.py src/paritykit/multiset.py [--count 24] \
        [-- python -m pytest -x -q tests/test_multiset.py]

A site is one operator of one comparison in the target file.  Each mutant
swaps one site: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
``in`` and ``not in``, ``is`` and ``is not``.  ``--count`` draws that many
sites with ``random.Random(SEED)``; without it every site is run.  The
checkout is copied (without ``.git`` and bytecode caches) into a temporary
directory, the command runs there with ``src`` on ``PYTHONPATH`` and no
bytecode written, so an equal-length swap is never hidden by a stale
``.pyc``, and the target is restored after each mutant.  The checkout
itself is never written.  The default command is tier-1 with ``-x``.
A mutant is killed when the command fails or runs past ``TIMEOUT`` seconds.
Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEED = 1
TIMEOUT = 600.0
SWAP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
        "in": "not in", "not in": "in", "is": "is not", "is not": "is"}
OPERATOR = re.compile(r"<=|>=|==|!=|<|>|\bnot\s+in\b|\bis\s+not\b|\bin\b|\bis\b")


def sites(text: str) -> list[tuple[int, int, str]]:
    """Each comparison operator of the source as (start, end, operator),
    character offsets into ``text``, in source order."""
    lines = text.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:
        # ast columns count UTF-8 bytes
        return starts[lineno - 1] + len(lines[lineno - 1].encode()[:col].decode())

    out = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Compare):
            continue
        for left, right in zip([node.left, *node.comparators], node.comparators):
            lo, hi = offset(left.end_lineno, left.end_col_offset), offset(right.lineno, right.col_offset)
            match = OPERATOR.search(text, lo, hi)
            op = " ".join(match.group().split())
            out.append((match.start(), match.end(), op))
    return sorted(out)


def run(command: list[str], cwd: Path) -> tuple[bool, float]:
    """(passed, seconds) of the command in ``cwd``; a run past the
    ``TIMEOUT`` is stopped with its whole process group and counts as failed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(cwd / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    child = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        passed = child.wait(timeout=TIMEOUT) == 0
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        passed = False
    return passed, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("target", help="source file to mutate, relative to the checkout")
    parser.add_argument("--count", type=int, help="number of sites to draw (default: all)")
    args = parser.parse_args(argv[:cut])
    command = argv[cut + 1:] or [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]

    text = (REPO / args.target).read_text(encoding="utf-8")
    chosen = sites(text)
    if args.count is not None and args.count < len(chosen):
        chosen = sorted(random.Random(SEED).sample(chosen, args.count))
    work = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        copy = work / "checkout"
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        target = copy / args.target
        passed, seconds = run(command, copy)
        if not passed:
            print(f"the unmutated command fails; no mutant run ({seconds:.1f} s)")
            return 1
        print(f"{len(chosen)} of {len(sites(text))} sites of {args.target}, seed {SEED}; "
              f"unmutated run {seconds:.1f} s")
        survivors = 0
        for start, end, op in chosen:
            target.write_text(text[:start] + SWAP[op] + text[end:], encoding="utf-8")
            try:
                passed, seconds = run(command, copy)
            finally:
                target.write_text(text, encoding="utf-8")
            survivors += passed
            line = text.count("\n", 0, start) + 1
            outcome = "SURVIVED" if passed else "killed  "
            print(f"{outcome} {args.target}:{line} {op!r} -> {SWAP[op]!r} ({seconds:.1f} s)", flush=True)
        print(f"{len(chosen) - survivors} killed, {survivors} survived")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
