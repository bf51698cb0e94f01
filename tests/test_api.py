import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fbmcber

MODULES = sorted(info.name for info in pkgutil.iter_modules(fbmcber.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fbmcber.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing


def test_modules_are_found():
    assert {"analytic", "modem", "simulate"} <= set(MODULES)


PUBLIC = {
    # analytic
    "db_to_linear", "pam_awgn_approx", "pam_awgn_exact", "pam_rayleigh_approx",
    "pam_rayleigh_exact", "ofdm_awgn", "ofdm_rayleigh", "fbmc_awgn_approx",
    "fbmc_awgn_exact", "fbmc_rayleigh_approx", "fbmc_rayleigh_exact",
    # constellations, enumeration
    "PamConstellation", "QamConstellation", "offset_support",
    # errors
    "FbmcBerError", "ConstellationError", "DegenerateFilter",
    "EnumerationBudgetExceeded", "GridError", "RangeError", "ShapeError",
    "UnsupportedFilterOrder", "UnsupportedSpreading",
    # filters
    "PrototypeFilter", "make_martin", "make_egf", "make_rect", "martin_gains",
    "normalize_energy", "save_taps", "load_taps",
    # interference
    "FbmcGrid", "InterferenceTable", "build_set", "export_table_csv",
    "ordered_magnitudes", "set_size", "sir", "truncate",
    # modem
    "pam_codewords", "pam_map", "pam_demap", "qam_map", "qam_demap",
    "fbmc_synthesize", "fbmc_analyze_frame",
    # simulate
    "ChannelModel", "FbmcSystem", "OfdmSystem", "PamSystem", "SimPoint",
    "SimResult", "StopRule", "run_ber", "z_scores",
}


def test_public_names():
    """The package namespace, submodules aside: a name added or removed
    shows up here."""
    names = {name for name, value in vars(fbmcber).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


COLD_RUN = """
import sys
import fbmcber as f
from fbmcber import analytic as an

tables = [f.truncate(f.build_set(f.FbmcGrid(16, filt)), 8)
          for filt in (f.make_martin(4, 16), f.make_egf(0.25, 4, 16))]
an.fbmc_rayleigh_exact(8, tables[1], an.db_to_linear([0.0, 20.0, 40.0]))
print("scipy.special" in sys.modules)
print(an.fbmc_awgn_exact(8, tables[1], an.db_to_linear([0.0, 6.0, 12.0])).tolist())
"""


def test_scipy_special_loads_with_the_first_awgn_curve():
    """Filter design, tables and Rayleigh curves run without scipy.special;
    the AWGN curve that loads it equals one computed with it preloaded."""
    import scipy.special  # noqa: F401

    env = {**os.environ, "PYTHONPATH": str(Path(fbmcber.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", COLD_RUN], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    loaded, curve = done.stdout.splitlines()
    assert loaded == "False"
    table = fbmcber.truncate(fbmcber.build_set(
        fbmcber.FbmcGrid(16, fbmcber.make_egf(0.25, 4, 16))), 8)
    warm = fbmcber.fbmc_awgn_exact(8, table, fbmcber.db_to_linear([0.0, 6.0, 12.0]))
    assert curve == repr(warm.tolist())
