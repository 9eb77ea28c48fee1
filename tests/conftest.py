"""Test-run header: the numerical stack that the pinned float pivot counts
depend on, since the BLAS build decides how reduced costs round."""

import os

import numpy as np


def pytest_report_header(config):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}, os.cpu_count() = {os.cpu_count()}"
