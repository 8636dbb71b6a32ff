"""chaos-lint: static analysis for the modeling pipeline, plus the two
runtime sanitizers.

Three lint layers (see ``docs/static_analysis.md``):

* a semantic checker that validates every platform's counter catalog
  (the co-dependency documentation Algorithm 1 step 2 relies on) and the
  model pipeline's registry/feature-set invariants;
* an AST pass over the source tree enforcing the determinism contract
  (seeded RNG streams, no float equality in experiments) and common
  Python footguns;
* chaos-race: concurrency-safety analysis (R6xx) — a CFG builder with
  interleaving points (``cfg``), a forward fixpoint engine
  (``dataflow``), a module call graph with async coloring
  (``callgraph``) and the rules themselves (``races``), driven by the
  concurrency tables in ``signatures``.

The ``--select``/``--ignore`` filter chooses which layers run.  Inline
suppressions (``# chaos: ignore[CODE] -- reason``) are honored across
the file-based layers; see ``suppress``.

Two runtime sanitizers back ``repro serve/replay --sanitize``: an
event-loop sanitizer (``sanitizer``) and an array-contract sanitizer
(``arraysan``) that wraps each ``signatures.ARRAY_CONTRACTS`` site and
checks the shapes, dtypes and contiguity that flow through it.

This package re-exports nothing: import the submodule you need, so
arming a sanitizer does not load the lint stack, and no module outside
this package imports it at load time.
"""
