import hashlib

import pytest

from geoprofile.calibration import calibrate_constants
from geoprofile.report import dumps_deterministic

# the sizes of the benchmark's calibrate workload
CALIBRATE_SIZES = dict(n_grid=1, n_closed=3, n_riccati=8, n_whitney=12,
                       n_roundtrip=0, budget=24)

# sha256 of the constants JSON of calibrate_constants(seed=1000, ...)
CALIBRATION_DIGESTS = {
    0: "e2d0265372c333ad88f98af96da22c5ac312df776d361a7b610eebb25a69d760",
    # one round trip: the synthesis records are measured too
    1: "1db2e426ad08b0fbfb4d47ab93067df0df2a7e3ecf492828d72c8373cb72327d",
}


@pytest.mark.parametrize("n_roundtrip", sorted(CALIBRATION_DIGESTS))
def test_calibrated_bytes_are_pinned(n_roundtrip):
    consts = calibrate_constants(
        seed=1000, **dict(CALIBRATE_SIZES, n_roundtrip=n_roundtrip))
    text = dumps_deterministic(consts.to_dict())
    assert (hashlib.sha256(text.encode()).hexdigest()
            == CALIBRATION_DIGESTS[n_roundtrip])
