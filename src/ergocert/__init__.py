"""Exact-arithmetic toolkit for certified ergodic averages.

Modules:
  arith        exact rationals, intervals, computable reals, Q[sqrt(2)]
  spaces       circle and Cantor space as computable metric spaces
  regions      exact region algebra (arc unions, cylinder unions)
  measures     ideal measures, exact W1 transport, exact measure oracles
  observables  piecewise-linear and cylinder observables, canonical family
  dynamics     built-in systems, Birkhoff averages, exact norms
  rates        convergence-rate certificates and their validators
  bc           Borel-Cantelli sequences and point synthesis
"""

__version__ = "0.1.0"
