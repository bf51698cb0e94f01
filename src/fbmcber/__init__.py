"""Closed-form bit error probabilities and Monte Carlo BER for FBMC links.

Prototype filters (Mirabbasi-Martin, extended Gaussian, rectangular),
their intrinsic interference tables, analytic BEP formulas for PAM,
cyclic-prefix OFDM and FBMC over AWGN and frequency-flat Rayleigh
channels, and a calibrated baseband simulator to validate them.
"""

from .analytic import (
    db_to_linear,
    fbmc_awgn_approx,
    fbmc_awgn_exact,
    fbmc_rayleigh_approx,
    fbmc_rayleigh_exact,
    ofdm_awgn,
    ofdm_rayleigh,
    pam_awgn_approx,
    pam_awgn_exact,
    pam_rayleigh_approx,
    pam_rayleigh_exact,
)
from .constellations import PamConstellation, QamConstellation
from .enumeration import offset_support
from .errors import (
    ConstellationError,
    DegenerateFilter,
    EnumerationBudgetExceeded,
    FbmcBerError,
    GridError,
    RangeError,
    ShapeError,
    UnsupportedFilterOrder,
    UnsupportedSpreading,
)
from .filters import (
    PrototypeFilter,
    load_taps,
    make_egf,
    make_martin,
    make_rect,
    martin_gains,
    normalize_energy,
    save_taps,
)
from .interference import (
    FbmcGrid,
    InterferenceTable,
    build_set,
    export_table_csv,
    ordered_magnitudes,
    set_size,
    sir,
    truncate,
)
from .modem import (
    fbmc_analyze_frame,
    fbmc_synthesize,
    pam_codewords,
    pam_demap,
    pam_map,
    qam_demap,
    qam_map,
)
from .simulate import (
    ChannelModel,
    FbmcSystem,
    OfdmSystem,
    PamSystem,
    SimPoint,
    SimResult,
    StopRule,
    run_ber,
    z_scores,
)

__version__ = "0.1.0"
