"""Simulator and solver suite for an adaptive moving target defense game.

A defender owns a pool of servers and can reimage them; an adversary probes
servers to take them over.  Both act simultaneously under partial observation.
The package provides the game environment, fixed heuristic strategies, a
deep Q-learning best-response trainer, an empirical-game Nash solver, and a
double oracle loop that approximates equilibrium play, plus a command line
harness tying them together.  Import each name from its module; the
package itself holds only `__version__`.
"""

__version__ = "0.1.0"
