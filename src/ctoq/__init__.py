"""Classical-to-quantum decoder construction and desk-scale experiments.

Submodules:

* :mod:`ctoq.linop`   dimension-tagged operators and trace distances
* :mod:`ctoq.qcore`   states, channels, measurements, bases, output overlaps
* :mod:`ctoq.decoder` the decoder built from two classical measurements,
  its error functionals and bounds
* :mod:`ctoq.ppgm`    projection-based pretty-good measurements
* :mod:`ctoq.haarhp`  Haar-scrambling information-retrieval experiment
* :mod:`ctoq.verify`  randomized property suites
* :mod:`ctoq.cli`     command-line harness
"""

# Nothing here imports numpy: :mod:`ctoq.cli` sets the BLAS thread defaults
# before numpy loads, and ``python -m ctoq`` imports this package first.
__version__ = "0.1.0"
