"""Property tests: every file loader either returns or raises
ValidationError, whatever JSON value the file holds; random CPTP
channels give normalized probability tables, round-trip through the
frame solve, and refinement never moves a noisy estimate away from
them in the Choi norm."""

import json
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mubqpt import (
    ValidationError,
    apply_channel,
    apply_chi,
    build_beta,
    generate_mub,
    import_results,
    load_chi,
    load_kraus,
    load_mub,
    load_probabilities,
    matrix_to_json,
    mub_to_json,
    perturb_probabilities,
    process_probabilities,
    random_density_matrix,
    refine_physical,
    solve_chi,
    trace_distance,
    trial_rng,
)
from test_tomography import choi_of_chi, choi_of_kraus, random_stinespring_channel

# keys the loaders look up, so that generated objects reach past the
# first lookup often enough to exercise the deeper checks
KEYS = ["dim", "values", "rows", "cols", "data", "index_order", "physical",
        "bases", "operators", "name", "aggregates", "mu", "channel", "trial",
        "fidelity", "refined", "mean_fidelity", "std_fidelity", "trials"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.just("gamma-major")
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=24,
)

LOADERS = [load_chi, load_probabilities, load_kraus, load_mub]
# import_results reads no size, so it joins the fuzz only
FUZZED = LOADERS + [import_results]

# one object that every loader accepts at D=2, so that a bad size put
# into it is the only fault of the file
VALID = {**mub_to_json(generate_mub(2)), **matrix_to_json(np.eye(6)),
         "index_order": "gamma-major", "values": [0.5] * 36,
         "operators": [matrix_to_json(np.eye(2))]}


@pytest.mark.parametrize("loader", FUZZED, ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=json_values)
@example(value=[])
@example(value=None)
@example(value=3)
@example(value="x")
@example(value={"dim": 2, "values": [0.5] * 36, "rows": 1, "cols": 1, "data": 5,
                "index_order": "gamma-major"})
@example(value={"dim": 10**400, "values": [], "index_order": "gamma-major"})
@example(value={"dim": 2, "values": [10**400], "rows": 1, "cols": 1,
                "data": [[10**400, 0]], "index_order": "gamma-major",
                "bases": [[[[10**400, 0]]]], "operators": [{"rows": 1, "cols": 1,
                                                            "data": [[10**400, 0]]}]})
@example(value={"rows": [{"mu": 0.1, "channel": "x", "trial": 2.7, "fidelity": 1,
                          "refined": "false"}, 3], "aggregates": [{"trials": True}]})
def test_loader_returns_or_raises_validation_error(loader, value, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(value))
    try:
        loader(path)
    except ValidationError:
        pass


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
def test_valid_file_loads(loader, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(VALID))
    assert loader(path).dim == 2


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("raw", [
    b'{"dim": 1e999}', b"\xff",
    json.dumps({**VALID, "dim": 2.7}).encode(),
    json.dumps({**VALID, "dim": 2.0}).encode(),
    json.dumps({**VALID, "dim": True}).encode(),
], ids=["overflow", "not-utf8", "dim-fraction", "dim-float", "dim-bool"])
def test_loader_rejects_overflow_and_bad_encoding(loader, raw, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    with pytest.raises(ValidationError):
        loader(path)


@pytest.mark.parametrize("loader", [load_chi, load_kraus], ids=lambda f: f.__name__)
@pytest.mark.parametrize("key", ["rows", "cols"])
def test_matrix_sizes_must_be_integers(loader, key, tmp_path):
    op = {**matrix_to_json(np.eye(2)), key: 2.0}
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**VALID, key: 6.0, "operators": [op]}))
    with pytest.raises(ValidationError):
        loader(path)


@cache
def basis_and_beta(dim):
    mub_set = generate_mub(dim)
    return mub_set, build_beta(mub_set)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 5), rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_random_channel_round_trips(dim, rank, seed):
    mub_set, beta = basis_and_beta(dim)
    rng = np.random.default_rng(seed)
    ch = random_stinespring_channel(dim, rank, rng)
    p = process_probabilities(ch, mub_set)
    sums = p.values.reshape(-1, dim).sum(axis=1)  # one (input, outcome basis) group each
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    chi = solve_chi(beta, p)
    for _ in range(3):
        rho = random_density_matrix(dim, rng)
        assert trace_distance(apply_chi(chi, rho, mub_set), apply_channel(ch, rho)) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 5), rank=st.integers(1, 6), mu=st.floats(0.0, 0.2),
       seed=st.integers(0, 2**32 - 1))
def test_refinement_never_moves_away_from_true_map(dim, rank, mu, seed):
    # the true map lies in the closed convex CPTP set, and projection onto
    # such a set is non-expansive: |P(J_raw) - J_true| <= |J_raw - J_true|
    mub_set, beta = basis_and_beta(dim)
    ch = random_stinespring_channel(dim, rank, np.random.default_rng(seed))
    noisy = perturb_probabilities(process_probabilities(ch, mub_set), mu, trial_rng(seed, 0, 0, 0))
    raw = solve_chi(beta, noisy)
    refined = refine_physical(raw, noisy, beta, mub_set)
    j_true = choi_of_kraus(ch)
    raw_dist = np.linalg.norm(choi_of_chi(raw, mub_set) - j_true)
    refined_dist = np.linalg.norm(choi_of_chi(refined, mub_set) - j_true)
    assert refined_dist <= raw_dist + 1e-12 * np.linalg.norm(j_true)
