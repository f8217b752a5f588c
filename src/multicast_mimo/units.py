"""Power and ratio unit conversions. All simulator internals are linear Watts."""

import numpy as np


def linear_to_db(value):
    return 10.0 * np.log10(value)


def dbw_to_watts(value_dbw):
    return 10.0 ** (np.asarray(value_dbw, dtype=float) / 10.0)


def dbm_to_watts(value_dbm):
    return 10.0 ** ((np.asarray(value_dbm, dtype=float) - 30.0) / 10.0)
