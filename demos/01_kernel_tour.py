"""Tour of the kernel zoo.

Evaluates the elementary half-space kernels and the dynamical-boundary
family at a few points, then checks the structural identities that make
them trustworthy: unit masses, the zero-diffusivity collapses, and the
two-sided envelope bounds.
"""

from dynheat import (
    HalfSpacePoint,
    Params,
    dirichlet_kernel,
    envelope,
    exchange_kernel,
    fundamental_kernel,
    heat_neumann_kernel,
    heat_neumann_mass,
    laplace_dynamic_kernel,
    laplace_dynamic_mass,
    neumann_kernel,
    poisson_kernel,
    total_mass,
)

p = Params(epsilon=1.0, delta=1.0, kappa=1.0, dim=2)
x = HalfSpacePoint(0.0, 1.0)
y = HalfSpacePoint(0.5, 0.3)
t = 0.8

print("== elementary kernels at x=(0,1), y=(0.5,0.3), t=0.8 ==")
print(f"absorbing wall   : {dirichlet_kernel(x, y, t, 2):.8f}")
print(f"reflecting wall  : {neumann_kernel(x, y, t, 2):.8f}")
print(f"harmonic (P)     : {poisson_kernel(0.5, 1.3, 2):.8f}")

print("\n== dynamical-boundary family ==")
h = exchange_kernel(p, x, y, t)
g = fundamental_kernel(p, x, y, t)
print(f"exchange kernel  : {h.value:.8f}  (error est {h.error_estimate:.1e})")
print(f"fundamental      : {g.value:.8f}")
print(f"harmonic dynamic : {laplace_dynamic_kernel(p.delta, p.kappa, x, y, t, 2).value:.8f}")
print(f"diffusive Neumann: {heat_neumann_kernel(p.epsilon, p.kappa, x, y, t, 2).value:.8f}")

print("\n== conservation: interior mass + weighted boundary mass = 1 ==")
for xn, tt in ((0.0, 0.1), (0.5, 1.0), (3.0, 10.0)):
    m = total_mass(p, xn, tt)
    print(f"x_n={xn:>3}, t={tt:>4}: mass = {m.value:.12f}")
print(f"harmonic-kernel boundary mass : "
      f"{laplace_dynamic_mass(p, 0.5, 0.8).value:.12f}")
print(f"Neumann-kernel interior mass  : "
      f"{heat_neumann_mass(p, 0.5, 1.0).value:.12f}")

print("\n== zero surface diffusivity collapses ==")
v = laplace_dynamic_kernel(1.0, 0.0, HalfSpacePoint(0.0, 1.0),
                           HalfSpacePoint(0.0, 0.0), 1.0, 2).value
print(f"harmonic dynamic at kappa=0 : {v:.10f}"
      f"  (pure harmonic kernel gives {poisson_kernel(0.0, 2.0, 2):.10f})")

print("\n== envelope regions along a ray ==")
for s, tt in ((0.0, 1.0), (0.0, 13.0), (10.0, 1.0)):
    xx = HalfSpacePoint(0.0, s)
    yy = HalfSpacePoint(0.0, 0.0)
    env = envelope(p, xx, yy, tt)
    hh = exchange_kernel(p, xx, yy, tt).value
    print(f"offset {s:>4}, t={tt:>4}: region {env.region},  "
          f"lower/H = {env.lower / hh:.3e},  H/upper = {hh / env.upper:.3e}")
