import hashlib
from importlib import resources

import pytest

from geoprofile.calibration import (DEFAULT_RESOURCE, calibrate_constants,
                                    default_constants)
from geoprofile.report import dumps_deterministic

# the sizes of the benchmark's calibrate workload
CALIBRATE_SIZES = dict(n_grid=1, n_closed=3, n_riccati=8, n_whitney=12,
                       n_roundtrip=0, budget=24)

# sha256 of the constants JSON of calibrate_constants(seed=1000, ...)
CALIBRATION_DIGESTS = {
    0: "5a92eab64f4f163e336a97118954c8ef300126e5f3de91fe5646a21d69d9e946",
    # one round trip: the synthesis records are measured too
    1: "fc69d38758bfb1b0499fbfc90f7dff391f10aaf86f453a9297e51377a8e08e9f",
}


@pytest.mark.parametrize("n_roundtrip", sorted(CALIBRATION_DIGESTS))
def test_calibrated_bytes_are_pinned(n_roundtrip):
    consts = calibrate_constants(
        seed=1000, **dict(CALIBRATE_SIZES, n_roundtrip=n_roundtrip))
    text = dumps_deterministic(consts.to_dict())
    assert (hashlib.sha256(text.encode()).hexdigest()
            == CALIBRATION_DIGESTS[n_roundtrip])


def test_shipped_calibration_is_fresh():
    """The packaged constants file, provenance included, holds the bytes
    of a fresh default calibration under its version."""
    shipped = resources.files("geoprofile").joinpath(
        "data", DEFAULT_RESOURCE).read_text()
    consts = calibrate_constants(version=default_constants().version)
    assert dumps_deterministic(consts.to_dict()) == shipped
