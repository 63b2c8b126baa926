"""`cli`: `python -m paritykit.cli`, one process at a time.

A shell or script user pays interpreter start, the import of
`paritykit.cli` and fixture I/O on every call, which the in-process
workloads never see.  Inputs stay small (at most oriental(4) or cube(3))
so those fixed costs dominate.  Some requests read stdin, some write
with `-o`, some use `--format structured`, and three must fail with the
documented exit codes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

import corpus
from harness import Request, shuffled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
#: Standard structures the requests draw from: (family, n).
STRUCTURES = (
    *(("globe", n) for n in range(1, 5)),
    *(("oriental", n) for n in range(1, 5)),
    *(("cube", n) for n in range(1, 4)),
)
#: Instances of each request template per pass.
PER_TEMPLATE = 6
CHAIN_OK = "dd zero: yes\nnormal: yes\nunital: yes\naugmented: yes\n"
UNKNOWN_GENERATOR = json.dumps({
    "schema_version": 1, "kind": "parity_structure", "name": "unknown-generator",
    "payload": {"elements": [
        {"id": "x", "dim": 0, "neg": [], "pos": []},
        {"id": "f", "dim": 1, "neg": ["x"], "pos": ["nowhere"]},
    ]},
})
MALFORMED = '{"schema_version": 1, "kind": "parity_structure", "payload": '


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class CliRequest(Request):
    """One CLI call; `expect(stdout, stderr, written)` is True when right."""

    kind = "cli"

    def __init__(self, key, args, code, expect, stdin=None, output=None):
        super().__init__(key)
        self.argv = [sys.executable, "-m", "paritykit.cli", *map(str, args)]
        self.code = code
        self.expect = expect
        self.stdin = stdin
        self.output = output
        self.env = child_env()

    def prepare(self, ctx):
        if self.output is not None:
            self.output.unlink(missing_ok=True)
        return ()

    def call(self, api):
        return api.run(self.argv, self.stdin, self.env, str(ROOT))

    def written(self):
        if self.output is None or not self.output.exists():
            return None
        return self.output.read_text(encoding="utf-8")

    def check(self, out, args):
        code, stdout, stderr = out
        if code != self.code:
            return f"exit {code}, expected {self.code}; stderr: {stderr.strip()}"
        if (code == 2) != bool(stderr):
            return f"stderr {stderr.strip()!r} with exit {code}"
        if not self.expect(stdout, stderr, self.written()):
            return f"unexpected output {stdout!r}, file {self.written()!r}"
        return None

    def summary(self, out):
        code, stdout, _ = out
        return f"{code}\n{stdout}\n{self.written()}"


def _path_cell(n: int, rng: random.Random) -> tuple[str, int]:
    """A 1-cell of oriental(n) along increasing vertices from 0 to n, as
    fixture text, with its number of edges."""
    inner = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    vertices = [0, *inner, n]
    edges = sorted(f"{a}{b}" for a, b in zip(vertices, vertices[1:]))
    payload = {"dim": 1, "neg": [["0"], edges], "pos": [[str(n)], edges]}
    doc = {"schema_version": 1, "kind": "cell", "name": f"path-{n}", "payload": payload}
    return json.dumps(doc), len(edges)


def setup(api, seed: int) -> dict:
    """Fixture files in a fresh directory, and the texts expected back."""
    rng = random.Random(seed)
    built = {(fam, n): api.build(fam, n) for fam, n in STRUCTURES}
    built["oriental", 0] = api.build("oriental", 0)
    texts = {f"{fam}-{n}": api.dumps(s, f"{fam}-{n}") for (fam, n), s in built.items() if n}
    texts["circle"] = corpus.frozen_text("circle")
    texts["weak_not_strong"] = corpus.frozen_text("weak_not_strong")
    texts["malformed"] = MALFORMED
    texts["unknown-generator"] = UNKNOWN_GENERATOR

    maps = {}  # name -> (target size, name map)
    for n in range(1, 5):
        for label, names in corpus.family_maps("oriental", n):
            maps[f"coface-{n}-{label}"] = (n, names)
            f = corpus.name_morphism(built["oriental", n - 1], built["oriental", n], names)
            texts[f"coface-{n}-{label}"] = api.dumps(f, f"coface-{n}-{label}")
    pairs = []  # (first, second, expected composite text)
    for _ in range(PER_TEMPLATE):
        n = rng.randint(1, 3)
        first = rng.choice([k for k, (m, _) in maps.items() if m == n])
        second = rng.choice([k for k, (m, _) in maps.items() if m == n + 1])
        names = corpus.compose_names(maps[first][1], maps[second][1])
        composite = corpus.name_morphism(built["oriental", n - 1], built["oriental", n + 1], names)
        pairs.append((first, second, api.dumps(composite, f"{first}-then-{second}")))
    cells = []  # (oriental size, fixture name, slices)
    for i in range(PER_TEMPLATE):
        n = rng.randint(2, 4)
        texts[f"path-{i}"], slices = _path_cell(n, rng)
        cells.append((n, f"path-{i}", slices))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    for name, text in texts.items():
        (work / f"{name}.json").write_text(text, encoding="utf-8")
    return {"work": work, "texts": texts, "maps": sorted(maps), "pairs": pairs, "cells": cells}


def requests(data: dict, seed: int) -> list[Request]:
    rng = random.Random(seed)
    work = data["work"]
    texts = data["texts"]

    def path(name):
        return work / f"{name}.json"

    def sizes():
        """A structure per instance, at evenly spaced positions of the
        structures ordered by size from a seeded offset, so that every
        seed asks for about the same sizes."""
        by_size = sorted(STRUCTURES, key=lambda fam_n: corpus.generator_count(*fam_n))
        offset = rng.random()
        picks = [by_size[int((offset + j) / PER_TEMPLATE * len(by_size))] for j in range(PER_TEMPLATE)]
        rng.shuffle(picks)
        return picks

    checked, generated_sizes = sizes(), sizes()
    out: list[Request] = []
    for i in range(PER_TEMPLATE):
        fam, n = checked[i]
        s = f"{fam}-{n}"
        counts = " ".join(map(str, corpus.KNOWN_CELL_COUNTS[fam, n, n]))
        pc = "classification: parity complex\n"

        def structured(stdout, **want):
            doc = json.loads(stdout)
            return all(doc.get(k) == v for k, v in want.items())

        out += [
            CliRequest(s, ["validate", path(s)], 0, lambda o, e, w, s=s: o.startswith(f"name: {s}\n{pc}")),
            CliRequest(s, ["validate", "-", "--format", "structured"], 0,
                       lambda o, e, w: structured(o, classification="parity complex")
                       and all(json.loads(o)["flags"].values()),
                       stdin=texts[s]),
            CliRequest(s, ["classify", path(s)], 0, lambda o, e, w: o == "parity complex\n"),
            CliRequest(s, ["classify", "-"], 0, lambda o, e, w: o == "parity complex\n", stdin=texts[s]),
            CliRequest(s, ["chain", path(s), "--check"], 0, lambda o, e, w: o == CHAIN_OK),
            CliRequest(s, ["cells", path(s), "--max-dim", n, "--count-only"], 0,
                       lambda o, e, w, c=counts: o == c + "\n"),
            CliRequest(s, ["cells", path(s), "--max-dim", n, "--count-only", "--format", "structured"], 0,
                       lambda o, e, w, c=counts: structured(o, counts=[int(x) for x in c.split()])),
            CliRequest(s, ["roundtrip", path(s)], 0, lambda o, e, w: o == "roundtrip isomorphic: yes\n"),
        ]
        fam, n = generated_sizes[i]
        generated = texts[f"{fam}-{n}"]
        target = work / f"generated-{i}.json"
        out += [
            CliRequest(f"{fam}-{n}", ["generate", "--family", fam, "--n", n], 0,
                       lambda o, e, w, t=generated: o == t),
            CliRequest(f"{fam}-{n}", ["generate", "--family", fam, "--n", n, "-o", target], 0,
                       lambda o, e, w, t=generated: o == "" and w == t, output=target),
        ]
        size, cell, slices = data["cells"][i]
        out.append(CliRequest(
            cell, ["decompose", path(f"oriental-{size}"), "--cell", path(cell)], 0,
            lambda o, e, w, k=slices: o.startswith(f"slices: {k}\n") and o.count("\n") == k + 1,
        ))
        m = rng.choice(data["maps"])
        out.append(CliRequest(m, ["morphism", "validate", path(m)], 0,
                              lambda o, e, w: o == "valid: yes\nnormal: yes\nstrict movement: yes\n"))
        first, second, composite = data["pairs"][i]
        target = work / f"composite-{i}.json"
        out.append(CliRequest(
            f"{first}+{second}", ["morphism", "compose", path(first), path(second), "-o", target], 0,
            lambda o, e, w, t=composite: o == "" and w == t, output=target,
        ))
        out += [
            CliRequest("circle", ["validate", path("circle"), "--require", "wpc"], 1,
                       lambda o, e, w: "cycle witness for weakly_loop_free (level 1): a → b → a\n" in o),
            CliRequest("weak_not_strong", ["validate", path("weak_not_strong"), "--require", "pc"], 1,
                       lambda o, e, w: "classification: weak parity complex\n" in o),
            CliRequest("malformed", ["validate", path("malformed")], 2,
                       lambda o, e, w: o == "" and e.startswith("error: not valid JSON")),
            CliRequest("unknown-generator", ["classify", path("unknown-generator")], 2,
                       lambda o, e, w: o == "" and "'nowhere' has no dimension-0 generator" in e),
        ]
    return out


def probes(data: dict) -> tuple:
    """Bare interpreter start, and start plus `import paritykit.cli`."""
    env = child_env()
    cwd = str(ROOT)
    return (
        ("probe_start", ([sys.executable, "-c", "pass"], None, env, cwd)),
        ("probe_import", ([sys.executable, "-c", "import paritykit.cli"], None, env, cwd)),
    )


pass_order = shuffled


def close(data: dict) -> None:
    shutil.rmtree(data["work"], ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it
