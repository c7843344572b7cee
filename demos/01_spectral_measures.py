"""Spectral measures: the three supported phonon spectra and the kernel
averages every bound is built from.

The library accepts a single phonon frequency (Einstein / non-dispersive),
a finite mixture of frequencies, or a tabulated density interpolated
linearly between nodes.  All have unit mass; everything downstream depends
on them only through moments <w^k> and the Matsubara kernel averages
<<n>> = < w^2 / (w^2 + (2 n pi T)^2) >.
"""

import numpy as np

from eliashberg_tc import measure

atom = measure.einstein(1.0)
mixture = measure.discrete([(0.5, 0.8), (0.5, 1.2)])
density = measure.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)])

print("Three measures, all unit mass:")
for m in (atom, mixture, density):
    print(f"  {m.describe():45s} support edge {m.omega_max:.3g}, "
          f"<w^2> = {m.moment(2):.6f}, <w^4> = {m.moment(4):.6f}")

print("\nKernel averages <<n>> at T = 0.25 (they decrease in n):")
for m in (atom, mixture, density):
    vals = m.kernel_values(0.25, 5)[1:]
    print(f"  {m.describe():45s} " + "  ".join(f"{v:.5f}" for v in vals))

print("\nTemperature limits of <<1>>:")
for t in (0.01, 0.1, 1.0, 10.0, 100.0):
    print(f"  T = {t:7.2f}: " + "  ".join(
        f"{m.kernel_average(1, t):.8f}" for m in (atom, mixture, density)))
print("  (-> 1 as T -> 0, -> <w^2>/(2 pi T)^2 -> 0 as T -> infinity)")

# the same measures are read from JSON files by the CLI:
print("\nMeasure-file shapes (UTF-8 JSON):")
print('  {"type":"einstein","omega":1.0}')
print('  {"type":"discrete","atoms":[{"weight":0.5,"omega":0.8},{"weight":0.5,"omega":1.2}]}')
print('  {"type":"tabulated","nodes":[[0.0,0.0],[0.5,2.0],[1.0,0.0]]}')

# scaling all frequencies by s and the temperature by s changes nothing:
base = mixture.kernel_average(3, 0.2)
moved = mixture.scaled(2.0).kernel_average(3, 0.4)
print(f"\nScale covariance: <<3>>(P, T) = {base:.12f}, "
      f"<<3>>(2P, 2T) = {moved:.12f}")
assert np.isclose(base, moved, rtol=1e-13)
