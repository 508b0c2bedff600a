"""Regenerate expected.json: the answers of every pool instance, cross-checked.

    python3 perfbench/make_expected.py

Each answer is computed by the library and confirmed by a second, independent
route before it is written:

* pipeline-p2: the certificate must replay, and the class-2 dimension must
  obey t + 1 <= dim <= s (the certified tuple rules out k-dim isotropic
  subspaces, and every 1-dim subspace is isotropic);
* exact-p3, Lie shapes: the DFS answer must equal the class-2 reduction's;
* exact-p3, associative shapes (d <= 6): the DFS answer must equal the
  brute-force oracle in tests/oracles.py;
* exact-p3, M_3: the Schur-Jacobson value floor(r^2/4) + 1.

Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    EXACT_POOL,
    EXACT_SHAPES,
    EXPECTED_PATH,
    PARAMS,
    PIPELINE_POOL,
    ROOT,
    S_TARGET,
    SCHUR_JACOBSON,
    _exact_algebra,
    forms_digest,
)

sys.path.insert(0, str(ROOT / "tests"))

from commdim import (  # noqa: E402
    PrimeField,
    build_lie_from_forms,
    certify_no_isotropic,
    class2_exact_result,
    greedy_abelian_class2,
    max_abelian_exact,
    reverify_certificate,
)
from oracles import brute_force_max_abelian  # noqa: E402


def pipeline_answers() -> dict:
    out = {}
    for seed in PIPELINE_POOL:
        cert = certify_no_isotropic(
            PARAMS["n"], PARAMS["t"], PARAMS["k"], PrimeField(2), seed=seed, max_attempts=1000
        )
        if not reverify_certificate(cert):
            raise SystemExit(f"certificate for seed {seed} does not replay")
        alg = build_lie_from_forms(cert.forms)
        c2 = class2_exact_result(alg).dim
        if not PARAMS["t"] + 1 <= c2 <= S_TARGET:
            raise SystemExit(f"class-2 dimension {c2} out of range at seed {seed}")
        out[str(seed)] = {
            "seed": cert.seed,
            "forms_sha256": forms_digest(cert.to_json()["mats"]),
            "class2_dim": c2,
            "greedy_dim": greedy_abelian_class2(alg).dim,
        }
        print(f"pipeline-p2 seed {seed}: {out[str(seed)]}", file=sys.stderr)
    return out


def exact_answers() -> dict:
    out = {}
    for shape, kind, *_ in EXACT_SHAPES:
        seeds = (0,) if kind is None else EXACT_POOL
        out[shape] = {}
        for seed in seeds:
            alg = _exact_algebra(shape, seed)
            res = max_abelian_exact(alg)
            if kind is None:
                other = SCHUR_JACOBSON
            elif kind == "lie":
                other = class2_exact_result(alg).dim
            else:
                other = brute_force_max_abelian(alg)
            if not res.exact or res.dim != other:
                raise SystemExit(f"{shape} seed {seed}: DFS {res.dim}, cross-check {other}")
            out[shape][str(seed)] = res.dim
            print(f"exact-p3 {shape} seed {seed}: {res.dim}", file=sys.stderr)
    return out


def main() -> None:
    expected = {"pipeline-p2": pipeline_answers(), "exact-p3": exact_answers()}
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
