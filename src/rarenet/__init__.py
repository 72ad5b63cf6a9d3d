"""Rare-net activity estimation for gate-level arithmetic datapaths.

Estimates and localizes rarely-switching nets in adders and multipliers
from word-level input statistics (mean, standard deviation, lag-1
autocorrelation), and validates the estimates against a built-in
correlated-stimulus toggle simulator.
"""

from .stats import (
    WordStats,
    Breakpoints,
    BitProfile,
    rho_msb,
    alpha_msb,
    breakpoints,
    theoretical_bit_profile,
    empirical_word_stats,
    empirical_bit_profile,
)
from .stimulus import StimulusStream, generate, save_stream, load_stream
from .netlist import Netlist, Gate, NetlistError, export_netlist, import_netlist
from .archlib import build_adder, build_multiplier, build_architecture, ADDER_KINDS, MULTIPLIER_KINDS
from .simulate import (ToggleProfile, constant_nets, evaluate, export_activity,
                       rare_nets, simulate)
from .estimate import (
    RareNetReport,
    estimate_rare_nets,
    compare,
    sweep_bp1,
    solve_sigma_for_bp1,
)

__version__ = "0.1.0"

__all__ = [
    "WordStats", "Breakpoints", "BitProfile",
    "rho_msb", "alpha_msb", "breakpoints",
    "theoretical_bit_profile", "empirical_word_stats", "empirical_bit_profile",
    "StimulusStream", "generate", "save_stream", "load_stream",
    "Netlist", "Gate", "NetlistError",
    "export_netlist", "import_netlist",
    "build_adder", "build_multiplier", "build_architecture",
    "ADDER_KINDS", "MULTIPLIER_KINDS",
    "ToggleProfile", "simulate", "evaluate", "rare_nets", "export_activity",
    "constant_nets",
    "RareNetReport", "estimate_rare_nets",
    "compare", "sweep_bp1", "solve_sigma_for_bp1",
]
