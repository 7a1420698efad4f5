"""Golden output digests: the bytes of a fixed set of runs must not change.

Each case serialises one run (an exploration with its certificates and read
log, a coupled sample, budgeted search answers with their work counts, or an
estimator's CSV) and compares its sha256 with the
pinned value.  A change that alters any of these outputs on purpose declares
it and updates the digests together with the reason.
"""
import hashlib
import json

import pytest

from torusperc import cycles
from torusperc import estimators as est
from torusperc.cluster import component_map
from torusperc.coupling import check_inclusion_property, coupled_sample
from torusperc.lattice import get_torus
from torusperc.percolation import derive_seed, sample_config
from torusperc.surgery import explore_cluster


def _explore(d, r, p, seed):
    base = sample_config(get_torus(d, r), p, derive_seed(seed, d, r))
    cm = component_map(base)
    root = int(cm.roots[cm.order[0]])
    cfg = base.instrumented()
    res = explore_cluster(cfg, root)
    return {"stage1": res.stage1.to_json(), "stage2": res.to_json(),
            "certificates": {str(e): w.to_json() for e, w in res.certificates.items()},
            "read_log": sorted(cfg.read_log)}


def _couple(d, r, p, seed):
    sample = coupled_sample(d, r, p, seed)
    inclusion = check_inclusion_property(sample, range(1, 7))
    return {"sample": sample.to_json(), "applicable": inclusion.applicable,
            "violations": {str(k): v for k, v in inclusion.violations.items()}}


def _budgeted_answers(d, r, p, seed):
    """Verdict, value and work of budgeted searches, Unknown answers included."""
    cfg = sample_config(get_torus(d, r), p, derive_seed(seed, d, r))
    cm = component_map(cfg)
    cl = cm.cluster(int(cm.order[0]))
    out = []
    for budget in range(100, 3000, 97):
        for ans in (cycles.cluster_contains_long_cycle(cfg, cl, budget),
                    cycles.vertex_in_long_cycle(cfg, int(cl.root), budget)):
            out.append([ans.verdict, ans.value, ans.work])
    return out


CASES = {
    "explore-d3-r5": lambda: _explore(3, 5, 0.4, 101),
    "explore-d2-r8": lambda: _explore(2, 8, 0.5, 102),
    "couple-d3-r5": lambda: _couple(3, 5, 0.3, 7),
    "couple-d2-r5": lambda: _couple(2, 5, 0.5, 3),
    "budgeted-answers": lambda: _budgeted_answers(2, 8, 0.55, 104),
    "vertex-long-cycle": lambda: est.est_vertex_long_cycle(
        2, [5, 8], p=0.5, replicas=4, seed=1).to_csv(include_meta=False),
    "cycle-cut": lambda: est.est_cycle_cut(
        2, [5, 8], [0.5, 1.0], p=0.45, replicas=4, seed=2).to_csv(include_meta=False),
    "cluster-size": lambda: est.est_mean_cluster_size(
        3, [4, 5], replicas=4, seed=3).to_csv(include_meta=False),
    "cycle-length": lambda: est.est_cycle_length_profile(
        2, 8, [2, 4, 8], p=0.5, replicas=4, seed=4).to_csv(include_meta=False),
    "long-cycle-tail": lambda: est.est_long_cycle_tail(
        2, 8, [0.5, 1.0], p=0.5, replicas=4, seed=5).to_csv(include_meta=False),
    "ball-boundary": lambda: est.est_ball_boundary_sum(
        2, [2, 4], replicas=10, seed=6).to_csv(include_meta=False),
    "two-point": lambda: est.est_two_point(
        3, 5, replicas=4, seed=7).to_csv(include_meta=False),
}

DIGESTS = {
    "ball-boundary":
        "ffb9f00e643f89da1062bf9eef572e2c87314d10465071c713fd38bffeed395b",
    "budgeted-answers":
        "0f11bb5b4602055e90b2a7ebbc8e9bde8275c4dbf8d95f0b6d1fc2a08c204d8b",
    "cluster-size":
        "85df8ef400c5fb8aa491e24da429fe421fa2f36ee23c20f7e723a64d15f7579d",
    "couple-d2-r5":
        "8f96e392f628de186a01664f7ae8829043499dbe22ca18da73b0eb1b232016ab",
    "couple-d3-r5":
        "7c037488e3a8cd0ab5bd8ca8901cd15100b01ea628ec197474d53c7343ee43ea",
    "cycle-cut":
        "5a78341c7fcf0678ced4e69cf8960f912a0caec9cbaab11d26b97b498034aded",
    "cycle-length":
        "73691700e8d4f08d6d5697d93cf3b2e51cfb14cc69ba976928cf53ed237b49c2",
    "explore-d2-r8":
        "2ad7172d8aa5b68877603cd094beb9fd8e9231590325fe7a52f66b30239722d8",
    "explore-d3-r5":
        "6eecf0db7d087895df9fa179f18e38535608757d457f03a7622454e29545849f",
    "long-cycle-tail":
        "94ee494a2f8804986a932aa7d80825a2f4048ef454efa5c210b42ac1d429888c",
    "two-point":
        "3d352c0b5a791a14bb80c131586c7afc80f044693e0c1ea78ca4eca9e4e20c5e",
    "vertex-long-cycle":
        "68dc263b5b11ffb9b48d078b41fc56700cc40ddcb787c76d1545b48dc4e244e6",
}


def digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name):
    assert digest(CASES[name]()) == DIGESTS[name]
