"""Work counts of this process, kept where the work happens.

`counts` is one `collections.Counter` per process (the workers of
`arcs --jobs N` keep their own): clear it before a run and read it
after, and never rebind it. No output file holds it. Keys:

- `orbit.stacked_calls`, `orbit.single_calls`, `orbit.rows`:
  `kernel._orbit_terms` calls on a (B, n) stack and on one point, and
  the points they evaluate; `orbit.hessian_rows`: the points at which
  `OrbitPoint.gradient_hessian` computes (cache hits do not count).
- `newton.rows`: the rows handed to `tracer._newton_solve`;
  `newton.first_calls`, `newton.later_calls`: its lockstep rounds, one
  stacked evaluation each, of gradients and Hessians in the first round
  and of gradients after; `newton.gradients`: the rows of the rounds;
  `newton.svds`: the stacked SVDs of its condition tests.
- `arc.ok`, `arc.diverged`, `arc.singular`: the outcomes of the solves
  `continue_arc` uses: at r_min, each step's rungs up to the one it
  takes (a far landing is 'diverged'), and each bisection.
- `sphere.calls`: `sphere_extremize` calls; `sphere.rounds`: their
  lockstep descent rounds, one stacked `eigh` each; `sphere.steps`:
  the trust-region steps solved.
"""

from collections import Counter

counts = Counter()
