"""Reproduction of *Coupling Neural Networks and Physics Equations For
Li-Ion Battery State-of-Charge Prediction* (DATE 2025).

Package layout
--------------
- :mod:`repro.nn` - numpy autograd / NN substrate (stand-in for the deep
  learning framework used by the authors);
- :mod:`repro.battery` - equivalent-circuit battery simulator (stand-in
  for the lab cells behind the Sandia and LG datasets);
- :mod:`repro.datasets` - synthetic campaigns reproducing the two public
  datasets' collection protocols;
- :mod:`repro.core` - the paper's contribution: the two-branch SoC
  network, Coulomb-counting physics loss, split training, rollout;
- :mod:`repro.baselines` - Physics-Only, LSTM, DE-MLP/DE-LSTM, EKF;
- :mod:`repro.eval` - metrics, multi-seed harness, experiment drivers
  for Fig. 3, Fig. 4, Table I and Fig. 5.

The serving system built around the model (:mod:`repro.serve`,
:mod:`repro.monitor`, :mod:`repro.learn`) is described in each
package's ``README.md``.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
