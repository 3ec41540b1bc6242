"""Property tests: every file loader either returns or raises
ValidationError, whatever JSON value the file holds."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mubqpt import ValidationError, load_chi, load_kraus, load_mub, load_probabilities

# keys the loaders look up, so that generated objects reach past the
# first lookup often enough to exercise the deeper checks
KEYS = ["dim", "values", "rows", "cols", "data", "index_order", "physical",
        "bases", "operators", "name"]

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


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
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
def test_loader_returns_or_raises_validation_error(loader, value, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(value))
    try:
        loader(path)
    except ValidationError:
        pass


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("raw", [b'{"dim": 1e999}', b"\xff"], ids=["overflow", "not-utf8"])
def test_loader_rejects_overflow_and_bad_encoding(loader, raw, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    with pytest.raises(ValidationError):
        loader(path)
