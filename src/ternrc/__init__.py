"""Training of Boolean/ternary readout masks on a simulated optical
reservoir, with the full benchmark and stability protocols.

The API lives in the submodules: ``ternrc.harness`` (configs and experiment
drivers), ``ternrc.optimizer``, ``ternrc.readout``, ``ternrc.substrate``,
``ternrc.tasks``, ``ternrc.baselines`` and ``ternrc.errors``.
"""

__version__ = "0.1.0"
