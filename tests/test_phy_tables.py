"""Provenance of the shipped PHY lookup tables.

``repro/phy/ber_tables.npz`` is package data: the simulator loads it
instead of evaluating ``scipy.special`` at start-up.  These tests
rebuild all eight tables from the closed forms in ``tests/phy_oracle.py``
and hold the shipped file, and the tables the simulator actually loads,
to that build byte for byte.  If a closed form or a grid changes,
regenerate the file with::

    PYTHONPATH=src python -m tests.phy_oracle --write
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.phy.lut import TABLE_PATH, lut_for
from tests import phy_oracle

MODULATIONS = sorted(phy_oracle.BER_BY_MODULATION)


@pytest.fixture(scope="module")
def built():
    return phy_oracle.build_tables()


def test_shipped_file_is_the_closed_form_build(built):
    with np.load(TABLE_PATH) as shipped:
        assert sorted(shipped.files) == sorted(built)
        for key, table in built.items():
            assert shipped[key].dtype == table.dtype, key
            assert shipped[key].tobytes() == table.tobytes(), key


@pytest.mark.parametrize("modulation", MODULATIONS)
def test_loaded_tables_are_the_closed_form_build(built, modulation):
    ber = built[f"{modulation}_ber"]
    inv_snr_db = built[f"{modulation}_inv_snr_db"]
    lut = lut_for(modulation)
    assert lut.ber.tobytes() == ber.tobytes()
    assert lut.ber_slope.tobytes() == (ber[1:] - ber[:-1]).tobytes()
    assert lut.max_ber == float(ber[0])
    assert lut.inv_snr_db.tobytes() == inv_snr_db.tobytes()
    assert lut.inv_slope.tobytes() == (inv_snr_db[1:] - inv_snr_db[:-1]).tobytes()
    # numpy's C fast paths copy read-only buffers on every call.
    assert lut.ber.flags.writeable and lut.inv_snr_db.flags.writeable
