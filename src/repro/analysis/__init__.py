"""chaos-lint + chaos-flow: static analysis for the modeling pipeline.

Five layers (see ``docs/static_analysis.md``):

* a semantic checker that validates every platform's counter catalog
  (the co-dependency documentation Algorithm 1 step 2 relies on) and the
  model pipeline's registry/feature-set invariants;
* an AST pass over the source tree enforcing the determinism contract
  (seeded RNG streams, no float equality in experiments) and common
  Python footguns;
* chaos-flow: flow-sensitive intraprocedural dataflow analyses — a CFG
  builder (``cfg``), a generic fixpoint engine (``dataflow``), and the
  taint/leakage (L4xx) and physical-unit (U5xx) analyses built on them,
  driven by the API contracts in ``signatures``;
* chaos-race: concurrency-safety analysis (R6xx) — a module call graph
  with async coloring (``callgraph``), interleaving-point awareness in
  the CFG, the rules themselves (``races``), and a runtime event-loop
  sanitizer (``sanitizer``) behind ``repro serve/replay --sanitize``;
* chaos-shape: numeric-array analysis (N7xx) — abstract interpretation
  over a shape/dtype/contiguity lattice (``shapes``) against the
  declared array contracts in ``signatures``, paired with a runtime
  array sanitizer (``arraysan``) that wraps each contract's site and
  cross-checks the same contracts during sanitized replays.

Inline suppressions (``# chaos: ignore[CODE] -- reason``) are honored
across all file-based layers; see ``suppress``.

This package re-exports nothing: import the submodule you need, so
arming a sanitizer does not load the lint stack, and no module outside
this package imports it at load time.
"""
