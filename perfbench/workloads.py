"""The benchmark's workloads: seeded instance lists, CLI commands, answer checks.

Every workload runs a fixed list of ``size`` instances drawn from its seed.
An instance is a short sequence of ``commdim`` CLI calls whose outputs are
checked field by field: exit codes, the fields named in ``expected.json``,
bounds the paper proves, and every witness re-checked with
``is_abelian_subspace``.  Fields a later version adds to an output (say a
node count) are ignored, so additive output changes never count as failures.

pipeline-p2 and exact-p3 draw their instances from fixed pools whose answers
``make_expected.py`` recorded in ``expected.json``.  The workload seed picks
12 distinct pool members of pipeline-p2, and the order in which exact-p3 runs
its first EXACT_PER_SHAPE pool members of each shape.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from commdim import (  # noqa: E402
    PrimeField,
    StructureConstantAlgebra,
    Subspace,
    build_assoc_from_forms,
    build_lie_from_forms,
    is_abelian_subspace,
    matrix_algebra,
    sample_form_tuple,
    unitalize,
)
from commdim.errors import NotASubalgebra  # noqa: E402

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# pipeline-p2: the paper's headline target s = 8 at p = 2
S_TARGET = 8
PARAMS = {"s": 8, "n": 7, "t": 5, "k": 4}
SUBSPACES_CHECKED = 11811  # 4-dim subspaces of GF(2)^7
PIPELINE_POOL = tuple(range(1000, 1064))  # certify --seed values

# exact-p3: (name, kind, n, t, form kind, unitalized); pool entries are form seeds
EXACT_P = 3
EXACT_SHAPES = (
    ("lie-4-3", "lie", 4, 3, "alternating", False),
    ("lie-5-2", "lie", 5, 2, "alternating", False),
    ("assoc-3-3", "assoc", 3, 3, "general", False),
    ("unital-2-3", "assoc", 2, 3, "general", True),
    ("matrix-3", None, 3, 0, None, False),
)
EXACT_POOL = tuple(range(8))
# pool members of each seeded shape that a run uses: every seed runs the same
# ones, in its own order, so the per-shape work does not depend on the seed
EXACT_PER_SHAPE = 2
MATRIX_R = 3
SCHUR_JACOBSON = MATRIX_R * MATRIX_R // 4 + 1

# structure: (n, t) alternate between d = 24 and d = 48 at p = 2
STRUCTURE_SHAPES = ((18, 6), (40, 8))
STRUCTURE_P = 2
# classical dimension and maximal abelian dimension of the exceptional types
EXCEPTIONAL = {"E6": (78, 16), "E7": (133, 27), "E8": (248, 36), "F4": (52, 9), "G2": (14, 3)}


@dataclass(frozen=True)
class Instance:
    index: int
    shape: str
    seed: int  # certify seed, form seed or pool index, by workload


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def forms_digest(mats: list) -> str:
    """sha256 of the form matrices' entries, the only part of a certificate hashed."""
    entries = [m["entries"] for m in mats]
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


def load_algebra(path: Path) -> StructureConstantAlgebra:
    with open(path) as fh:
        return StructureConstantAlgebra.from_json(json.load(fh))


def witness_problem(alg: StructureConstantAlgebra, res: dict) -> str | None:
    """None if res carries a commutative subalgebra of alg of the stated dim."""
    if not isinstance(res.get("witness"), dict):
        return "no witness"
    try:
        w = Subspace.from_json(res["witness"])
        if w.dim != res["dim"]:
            return f"witness has dim {w.dim}, result states {res['dim']}"
        if not is_abelian_subspace(alg, w):
            return "witness is not commutative"
    except NotASubalgebra:
        return "witness is not a subalgebra"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed witness: {exc}"
    return None


def _exit_problems(names: list[str], outs: list) -> list[str]:
    return [
        f"{name}: exit {rc}" + (f" {doc.get('error')}" if isinstance(doc, dict) else "")
        for name, (rc, doc) in zip(names, outs)
        if rc != 0 or doc is None
    ]


class Pipeline:
    """params -> certify -> construct -> class2 -> greedy -> verify -> reverify."""

    name = "pipeline-p2"
    size = 12
    pace = "small"  # the reference computation of pace.py that tracks its speed
    steps = ["params", "certify", "construct", "class2", "greedy", "verify", "reverify"]

    def instances(self, seed: int) -> list[Instance]:
        rng = random.Random(f"{self.name}:{seed}")
        return [Instance(i, "s8", c) for i, c in enumerate(rng.sample(PIPELINE_POOL, self.size))]

    def write_inputs(self, instances, inputs: Path) -> None:
        """Every input of this workload is a CLI argument."""

    def commands(self, inst: Instance, inputs: Path, work: Path) -> list[list[str]]:
        cert, alg = str(work / "cert.json"), str(work / "alg.json")
        p = PARAMS
        return [
            ["params", "--s", str(S_TARGET)],
            ["certify", "--n", str(p["n"]), "--t", str(p["t"]), "--k", str(p["k"]), "--p", "2",
             "--seed", str(inst.seed), "--max-attempts", "1000", "-o", cert],
            ["construct", "--from", cert, "--kind", "lie", "-o", alg],
            ["search", "--alg", alg, "--mode", "class2"],
            ["search", "--alg", alg, "--mode", "greedy"],
            ["verify", "--alg", alg],
            ["reverify", "--cert", cert],
        ]

    def check(self, inst: Instance, outs: list, inputs: Path, work: Path, expected: dict) -> list[str]:
        bad = _exit_problems(self.steps, outs)
        if bad:
            return bad
        params, cert, alg_doc, c2, gr, ver, rev = (doc for _, doc in outs)
        exp = expected[self.name][str(inst.seed)]
        if any(params.get(k) != v for k, v in PARAMS.items()):
            bad.append(f"params: {params}")
        if cert.get("seed") != exp["seed"]:
            bad.append(f"certify: seed {cert.get('seed')}, expected {exp['seed']}")
        if forms_digest(cert.get("mats", [])) != exp["forms_sha256"]:
            bad.append("certify: forms differ from the expected tuple")
        if cert.get("k") != PARAMS["k"] or int(cert.get("subspaces_checked", -1)) != SUBSPACES_CHECKED:
            bad.append(f"certify: k {cert.get('k')}, subspaces_checked {cert.get('subspaces_checked')}")
        d = PARAMS["n"] + PARAMS["t"]
        if alg_doc.get("dim") != d or alg_doc.get("kind") != "lie":
            bad.append(f"construct: {alg_doc.get('kind')} of dim {alg_doc.get('dim')}")
        if c2.get("exact") is not True or c2.get("dim") != exp["class2_dim"] or c2["dim"] > S_TARGET:
            bad.append(f"class2: dim {c2.get('dim')} exact {c2.get('exact')}, expected {exp['class2_dim']}")
        g = gr.get("dim", -1)
        if g != exp["greedy_dim"] or g > c2.get("dim", -1) or d > g * g // 4 + g:
            bad.append(f"greedy: dim {g}, expected {exp['greedy_dim']}")
        if ver.get("passed") is not True:
            bad.append("verify: axioms failed")
        if rev.get("reverified") is not True:
            bad.append("reverify: certificate did not replay")
        if not bad:
            alg = load_algebra(work / "alg.json")
            for step, res in (("class2", c2), ("greedy", gr)):
                problem = witness_problem(alg, res)
                if problem:
                    bad.append(f"{step}: {problem}")
        return bad


def _exact_algebra(shape: str, seed: int) -> StructureConstantAlgebra:
    _, kind, n, t, form_kind, unital = next(s for s in EXACT_SHAPES if s[0] == shape)
    field = PrimeField(EXACT_P)
    if kind is None:
        return matrix_algebra(MATRIX_R, field)
    forms = sample_form_tuple(n, t, form_kind, field, seed)
    alg = build_lie_from_forms(forms) if kind == "lie" else build_assoc_from_forms(forms)
    return unitalize(alg) if unital else alg


class Exact:
    """One ``search --mode exact`` per instance, cycling through EXACT_SHAPES."""

    name = "exact-p3"
    size = EXACT_PER_SHAPE * len(EXACT_SHAPES)
    pace = "small"

    def instances(self, seed: int) -> list[Instance]:
        # the same pool members run for every seed, in an order drawn from
        # it, which keeps the percentiles from following how many slow pool
        # members were drawn
        rng = random.Random(f"{self.name}:{seed}")
        used = EXACT_POOL[:EXACT_PER_SHAPE]
        order = {shape: rng.sample(used, len(used)) for shape, kind, *_ in EXACT_SHAPES if kind}
        out = []
        for i in range(self.size):
            shape, kind, *_ = EXACT_SHAPES[i % len(EXACT_SHAPES)]
            out.append(Instance(i, shape, 0 if kind is None else order[shape][i // len(EXACT_SHAPES)]))
        return out

    @staticmethod
    def input_path(inst: Instance, inputs: Path) -> Path:
        return inputs / f"{inst.shape}-{inst.seed}.json"

    def write_inputs(self, instances, inputs: Path) -> None:
        for inst in instances:
            path = self.input_path(inst, inputs)
            if not path.exists():
                path.write_text(json.dumps(_exact_algebra(inst.shape, inst.seed).to_json()))

    def commands(self, inst: Instance, inputs: Path, work: Path) -> list[list[str]]:
        return [["search", "--alg", str(self.input_path(inst, inputs)), "--mode", "exact"]]

    def check(self, inst: Instance, outs: list, inputs: Path, work: Path, expected: dict) -> list[str]:
        bad = _exit_problems(["exact"], outs)
        if bad:
            return bad
        res = outs[0][1]
        want = expected[self.name][inst.shape][str(inst.seed)]
        if res.get("exact") is not True or res.get("dim") != want:
            return [f"exact: dim {res.get('dim')} exact {res.get('exact')}, expected {want}"]
        problem = witness_problem(load_algebra(self.input_path(inst, inputs)), res)
        return [f"exact: {problem}"] if problem else []


class Structure:
    """Constructions, axiom checks, greedy, unitalization and the table commands."""

    name = "structure"
    size = 16
    pace = "dense"  # large arrays and BLAS, as in the d^4 Jacobi check
    steps = [
        "construct lie", "construct assoc", "verify lie", "verify assoc", "greedy",
        "unitalize", "verify unital", "matrix-comm", "bounds", "simple-table",
    ]

    def instances(self, seed: int) -> list[Instance]:
        rng = random.Random(f"{self.name}:{seed}")
        return [
            Instance(i, "d24" if i % 2 == 0 else "d48", rng.randrange(2**31))
            for i in range(self.size)
        ]

    @staticmethod
    def _shape(inst: Instance) -> tuple[int, int]:
        return STRUCTURE_SHAPES[inst.index % 2]

    @staticmethod
    def _matrix_args(inst: Instance) -> tuple[int, str]:
        r = 6 if inst.index % 2 == 0 else 8
        return r, ("corner" if inst.index % 4 < 2 else "diagonal")

    def write_inputs(self, instances, inputs: Path) -> None:
        field = PrimeField(STRUCTURE_P)
        for inst in instances:
            n, t = self._shape(inst)
            for kind in ("alternating", "general"):
                forms = sample_form_tuple(n, t, kind, field, inst.seed)
                (inputs / f"{kind}-{inst.index}.json").write_text(json.dumps(forms.to_json()))

    def commands(self, inst: Instance, inputs: Path, work: Path) -> list[list[str]]:
        n, _ = self._shape(inst)
        r, construction = self._matrix_args(inst)
        lie, assoc, unit = str(work / "lie.json"), str(work / "assoc.json"), str(work / "unit.json")
        table = ["simple-table", "--type", "E8"] if inst.index % 2 else ["simple-table"]
        return [
            ["construct", "--from", str(inputs / f"alternating-{inst.index}.json"), "--kind", "lie", "-o", lie],
            ["construct", "--from", str(inputs / f"general-{inst.index}.json"), "--kind", "assoc", "-o", assoc],
            ["verify", "--alg", lie],
            ["verify", "--alg", assoc],
            ["search", "--alg", lie, "--mode", "greedy"],
            ["unitalize", "--alg", assoc, "-o", unit],
            ["verify", "--alg", unit],
            ["matrix-comm", "--r", str(r), "--p", str(STRUCTURE_P), "--construction", construction],
            ["bounds", "--n", str(n), "--field", "closed"],
            table,
        ]

    def check(self, inst: Instance, outs: list, inputs: Path, work: Path, expected: dict) -> list[str]:
        bad = _exit_problems(self.steps, outs)
        if bad:
            return bad
        lie, assoc, v_lie, v_assoc, gr, unit, v_unit, mat, bnd, table = (doc for _, doc in outs)
        n, t = self._shape(inst)
        d = n + t
        for step, doc, kind, dim in (("construct lie", lie, "lie", d), ("construct assoc", assoc, "assoc", d),
                                     ("unitalize", unit, "assoc", d + 1)):
            if doc.get("kind") != kind or doc.get("dim") != dim:
                bad.append(f"{step}: {doc.get('kind')} of dim {doc.get('dim')}")
        for step, doc in (("verify lie", v_lie), ("verify assoc", v_assoc), ("verify unital", v_unit)):
            if doc.get("passed") is not True:
                bad.append(f"{step}: axioms failed")
        g = gr.get("dim", -1)
        if g > d or d > g * g // 4 + g:
            bad.append(f"greedy: dim {g} breaks d <= g^2/4 + g")
        r, construction = self._matrix_args(inst)
        want = (r // 2) * (r - r // 2) if construction == "corner" else r
        if mat.get("sub_dim") != want or mat.get("ambient", {}).get("dim") != r * r:
            bad.append(f"matrix-comm: sub_dim {mat.get('sub_dim')}, expected {want}")
        bound = {(e.get("name"), e.get("side")): e.get("value") for e in bnd.get("entries", [])}
        if bnd.get("n") != n or bound.get(("l_K", "lower")) != str(Fraction(n * n + 4 * n - 5, 8)):
            bad.append(f"bounds: l_K lower {bound.get(('l_K', 'lower'))} at n = {bnd.get('n')}")
        rows = {e.get("type"): (e.get("dim"), e.get("max_abelian")) for e in table if isinstance(e, dict)}
        for typ in (["E8"] if inst.index % 2 else EXCEPTIONAL):
            if rows.get(typ) != EXCEPTIONAL[typ]:
                bad.append(f"simple-table: {typ} {rows.get(typ)}")
        if not bad:
            problem = witness_problem(load_algebra(work / "lie.json"), gr)
            if problem:
                bad.append(f"greedy: {problem}")
            ambient = StructureConstantAlgebra.from_json(mat["ambient"])
            problem = witness_problem(ambient, {"witness": mat["sub"], "dim": mat["sub_dim"]})
            if problem:
                bad.append(f"matrix-comm: {problem}")
        return bad


WORKLOADS = {w.name: w for w in (Pipeline(), Exact(), Structure())}
