"""Semi-classical arithmetic toolkit.

Submodules:

- formulas: first-order arithmetic AST, parser, printer, evaluation
- hierarchy: quantifier-alternation classification and class lattice
- duality: the prenex dual operator and its laws
- nodes: principle catalog and node grammar (one parser, one printer)
- principles: restricted classical principle schemas and their instances
- ipc: intuitionistic propositional decision procedure
- derivability: Horn-rule closure engine over the principle lattice
- cli: command-line front end
"""

__version__ = "0.1.0"
