"""Semi-classical arithmetic toolkit.

Submodules:

- formulas: first-order arithmetic AST, parser, printer, evaluation
- hierarchy: quantifier-alternation classification and the Sigma/Pi
  class lattice; re-exports ClassLit and class_lit_subset from nodes
- duality: the prenex dual operator and its laws
- nodes: principle catalog, node grammar (one parser, one printer) and
  the class-literal order (class_lit_subset, class_lit_covers)
- principles: restricted classical principle schemas and their instances
- ipc: intuitionistic propositional decision procedure
- derivability: Horn-rule closure engine over the principle lattice
- cli: command-line front end
"""

__version__ = "0.1.0"
