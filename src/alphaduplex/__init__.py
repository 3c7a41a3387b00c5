"""BER and throughput analysis for cellular networks with partially
overlapping uplink and downlink spectrum.

The package has two evaluation paths that cross-validate each other:

* :mod:`alphaduplex.analytic` - closed-form spatially averaged BER built on
  stochastic-geometry Laplace transforms (:mod:`alphaduplex.specfun`,
  :mod:`alphaduplex.pulse`, :mod:`alphaduplex.model`).
* :mod:`alphaduplex.montecarlo` - network realizations simulated point by
  point, with empirical SINR statistics.

:mod:`alphaduplex.sweep` drives the closed forms over a grid of
spectrum-overlap fractions and locates the operating points where the
uplink/downlink throughput trade is balanced; :mod:`alphaduplex.cli` wraps
everything in a command-line tool.
"""

__version__ = "0.1.0"
