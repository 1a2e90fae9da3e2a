#!/usr/bin/env python3
"""Generate src/sca/data/rulebase.json.

The rule base is data, but it is large and highly regular (many rules are
level-parametric families expanded over small menus of class arguments),
so it is produced by this script rather than maintained by hand.  Run
from the repository root:

    python tools/make_rulebase.py
"""

import json
import pathlib
import sys

RULES = []
SEPARATIONS = []


def R(rid, premises, conclusion, ref, quote, guard=None, verify=None):
    rule = {
        "id": rid,
        "premises": list(premises),
        "conclusion": conclusion,
        "cite": {"ref": ref, "quote": quote},
    }
    if guard:
        rule["guard"] = guard
    rule["verify"] = verify if verify else {"kind": "first-order"}
    RULES.append(rule)


def S(fid, theory, unprovable, ref, quote, guard=None):
    fact = {
        "id": fid,
        "theory": list(theory),
        "unprovable": unprovable,
        "cite": {"ref": ref, "quote": quote},
    }
    if guard:
        fact["guard"] = guard
    SEPARATIONS.append(fact)


def prop(skeleton, lemmas=None):
    v = {"kind": "propositional", "skeleton": skeleton}
    if lemmas:
        v["lemmas"] = lemmas
    return v


# Class-argument menus used when a statement quantifies over "any set"
# of formulas: the finite menu of node classes at level k.
GAMMA4 = ["S(k)", "P(k)", "nS(k)", "nP(k)"]
THETA6 = ["S(k)", "P(k)", "D(k)", "nS(k)", "nP(k)", "nD(k)"]
THETA7 = THETA6 + ["nnD(k)"]
GAMMA3 = ["S(k)", "P(k)", "D(k)"]


def neg(cls):
    return cls[1:] if cls.startswith("nn") else ("n" + cls)


def tag(cls):
    return cls.replace("(k)", "").replace("(k-1)", "_").replace("(k-2)", "__")


# ---------------------------------------------------------------------------
# Base facts about excluded middle and double negation (Facts 2.2, 2.3,
# Proposition 2.8) plus the level-0 axioms.

Q22 = (r"Since $\mathbf{HA}$ proves $\varphi \lor \neg \varphi \to "
       r"(\neg \neg \varphi \to \varphi)$ for any formula $\varphi$, "
       r"the following fact trivially holds.")
for g in ["S(k)", "P(k)", "D(k)", "nS(k)", "nP(k)"]:
    R(f"fact-2.2-{tag(g)}", [f"LEM:{g}"], f"DNE:{g}", "Fact 2.2", Q22,
      verify=prop("(a \\/ ~a) -> (~~a -> a)"))

Q231 = (r"$\LEM{\Sigma_k}$ and $\LEM{\Pi_k} + \DNE{\Sigma_k}$ are "
        r"equivalent over $\mathbf{HA}$")
R("fact-2.3.1a", ["LEM:P(k)", "DNE:S(k)"], "LEM:S(k)", "Fact 2.3.1", Q231)
R("fact-2.3.1b", ["LEM:S(k)"], "LEM:P(k)", "Fact 2.3.1", Q231)
R("fact-2.3.1c", ["LEM:S(k)"], "DNE:S(k)", "Fact 2.3.1", Q231,
  verify=prop("(a \\/ ~a) -> (~~a -> a)"))

R("fact-2.3.2", ["LEM:P(k)"], "DNEOR:P(k):P(k)", "Fact 2.3.2",
  r"$\mathbf{HA} + \LEM{\Pi_k} \vdash \DNE{(\Pi_k \lor \Pi_k)}$",
  verify=prop("((a \\/ ~a) /\\ (b \\/ ~b)) -> (~~(a \\/ b) -> a \\/ b)"))
R("fact-2.3.3", ["DNEOR:P(k):P(k)"], "LEM:D(k)", "Fact 2.3.3",
  r"$\mathbf{HA} + \DNE{(\Pi_k \lor \Pi_k)} \vdash \LEM{\Delta_k}$")
R("fact-2.3.4", ["DNE:S(k)"], "LEM:D(k)", "Fact 2.3.4",
  r"$\mathbf{HA} + \DNE{\Sigma_k} \vdash \LEM{\Delta_k}$",
  verify=prop("((a <-> p) /\\ (~~(a \\/ ~p) -> (a \\/ ~p))) -> (a \\/ ~a)"))
R("fact-2.3.5", ["LEM:D(k)"], "LEM:S(k-1)", "Fact 2.3.5",
  r"$\mathbf{HA} + \LEM{\Delta_{k+1}} \vdash \LEM{\Sigma_k}$",
  guard="k>=1")
Q236 = (r"$\DNE{\Sigma_k}$ and $\DNE{\Pi_{k+1}}$ are equivalent over "
        r"$\mathbf{HA}$")
R("fact-2.3.6a", ["DNE:S(k-1)"], "DNE:P(k)", "Fact 2.3.6", Q236, guard="k>=1")
R("fact-2.3.6b", ["DNE:P(k)"], "DNE:S(k-1)", "Fact 2.3.6", Q236, guard="k>=1")

R("prop-2.8.1", ["DNE:S(k)"], "DNS:S(k)", "Prop 2.8.1",
  r"$\mathbf{HA} + \DNE{\Sigma_k} \vdash \DNS{\Sigma_k}$")
Q282 = (r"$\DNS{\Sigma_k}$ and $\DNS{\Pi_{k+1}}$ are equivalent over "
        r"$\mathbf{HA}$")
R("prop-2.8.2a", ["DNS:S(k-1)"], "DNS:P(k)", "Prop 2.8.2", Q282, guard="k>=1")
R("prop-2.8.2b", ["DNS:P(k)"], "DNS:S(k-1)", "Prop 2.8.2", Q282, guard="k>=1")

# Level 0: quantifier-free instances are decidable in HA, so the level-0
# excluded-middle and double-negation-elimination schemas are axioms.
R("ha-dne-s0", [], "DNE:S0", "§3 Prop 3.2 proof",
  r"It is known that if $\varphi$ is $\Sigma_0$, then $\mathbf{HA} \vdash "
  r"\neg \neg \varphi \leftrightarrow \varphi$.", guard="k==0")
R("ha-lem-s0", [], "LEM:S0", "§7 Prop 7.4 proof",
  r"For $k = 0$, the statement is trivial.", guard="k==0")

# ---------------------------------------------------------------------------
# Duality (Propositions 3.4, 3.6, 3.9)

Q34 = (r"The following are equivalent over $\mathbf{HA}$: "
       r"$\DUAL{\Sigma_{k+1}}$; $\DUAL{\Pi_k}$; $\DNE{\Sigma_k}$.")
R("prop-3.4a", ["DUAL:S(k)"], "DNE:S(k-1)", "Prop 3.4", Q34, guard="k>=1")
R("prop-3.4b", ["DNE:S(k-1)"], "DUAL:S(k)", "Prop 3.4", Q34, guard="k>=1")
R("prop-3.4c", ["DUAL:P(k)"], "DNE:S(k)", "Prop 3.4", Q34)
R("prop-3.4d", ["DNE:S(k)"], "DUAL:P(k)", "Prop 3.4", Q34)

Q361 = (r"$\DUAL{\Delta_k}^\Sigma$ is equivalent to $\DUAL{\Sigma_k}$ "
        r"over $\mathbf{HA}$")
Q362 = (r"$\DUAL{\Delta_k}^\Pi$ is equivalent to $\DUAL{\Pi_k}$ over "
        r"$\mathbf{HA}$")
R("prop-3.6.1a", ["DUAL:DSI:D(k)"], "DUAL:S(k)", "Prop 3.6.1", Q361,
  verify=prop("((a <-> bot) -> (~a -> d)) -> (~a -> d)"))
R("prop-3.6.1b", ["DUAL:S(k)"], "DUAL:DSI:D(k)", "Prop 3.6.1", Q361,
  verify=prop("(~a -> d) -> ((a <-> p) -> (~a -> d))"))
R("prop-3.6.2a", ["DUAL:DPI:D(k)"], "DUAL:P(k)", "Prop 3.6.2", Q362,
  verify=prop("((a <-> bot) -> (~a -> d)) -> (~a -> d)"))
R("prop-3.6.2b", ["DUAL:P(k)"], "DUAL:DPI:D(k)", "Prop 3.6.2", Q362,
  verify=prop("(~a -> d) -> ((a <-> p) -> (~a -> d))"))

Q39 = (r"The following are equivalent over $\mathbf{HA}$: "
       r"$\WDUAL{\Sigma_{k+1}}$; $\WDUAL{\Pi_{k+1}}$; $\DNS{\Sigma_k}$.")
R("prop-3.9a", ["WDUAL:S(k)"], "DNS:S(k-1)", "Prop 3.9", Q39, guard="k>=1")
R("prop-3.9b", ["DNS:S(k-1)"], "WDUAL:S(k)", "Prop 3.9", Q39, guard="k>=1")
R("prop-3.9c", ["WDUAL:P(k)"], "DNS:S(k-1)", "Prop 3.9", Q39, guard="k>=1")
R("prop-3.9d", ["DNS:S(k-1)"], "WDUAL:P(k)", "Prop 3.9", Q39, guard="k>=1")

# ---------------------------------------------------------------------------
# Excluded middle with duals and negations (Propositions 4.4, 4.5, 4.8,
# 4.9; Corollaries 4.10, 4.11)

Q441 = (r"$\LEM{\Gamma}^\bot$ is equivalent to $\LEM{\Gamma} + "
        r"\DUAL{\Gamma}$ over $\mathbf{HA}$")
for g in ["S(k)", "P(k)"]:
    t = tag(g)
    R(f"prop-4.4.1a-{t}", [f"LEMBOT:{g}"], f"LEM:{g}", "Prop 4.4.1", Q441,
      verify=prop("(a \\/ d) -> (a \\/ ~a)",
                  [{"law": "dual-imp-neg", "phi": "a", "dual": "d"}]))
    R(f"prop-4.4.1b-{t}", [f"LEMBOT:{g}"], f"DUAL:{g}", "Prop 4.4.1", Q441,
      verify=prop("(a \\/ d) -> (~a -> d)"))
    R(f"prop-4.4.1c-{t}", [f"LEM:{g}", f"DUAL:{g}"], f"LEMBOT:{g}",
      "Prop 4.4.1", Q441,
      verify=prop("((a \\/ ~a) /\\ (~a -> d)) -> (a \\/ d)"))

Q451 = (r"$\LEM{\Sigma_k}^\bot$ is equivalent to $\LEM{\Sigma_k}$ over "
        r"$\mathbf{HA}$")
Q452 = (r"$\LEM{\Pi_k}^\bot$ is equivalent to $\LEM{\Sigma_k}$ over "
        r"$\mathbf{HA}$")
Q453 = (r"$\LEM{\Delta_k}^\Sigma$ is equivalent to $\LEM{\Delta_k}$ over "
        r"$\mathbf{HA}$")
Q454 = (r"$\LEM{\Delta_k}^\Pi$ is equivalent to $\DNE{\Sigma_k}$ over "
        r"$\mathbf{HA}$")
R("prop-4.5.1", ["LEM:S(k)"], "LEMBOT:S(k)", "Prop 4.5.1", Q451)
R("prop-4.5.2a", ["LEMBOT:P(k)"], "LEM:S(k)", "Prop 4.5.2", Q452)
R("prop-4.5.2b", ["LEM:S(k)"], "LEMBOT:P(k)", "Prop 4.5.2", Q452)
R("prop-4.5.3a", ["LEM:DSI:D(k)"], "LEM:D(k)", "Prop 4.5.3", Q453,
  verify=prop("((a <-> p) -> (a \\/ d)) -> ((a <-> p) -> (a \\/ ~a))",
              [{"law": "dual-imp-neg", "phi": "a", "dual": "d"}]))
R("prop-4.5.3b", ["LEM:D(k)"], "LEM:DSI:D(k)", "Prop 4.5.3", Q453)
R("prop-4.5.4a", ["LEM:DPI:D(k)"], "DNE:S(k)", "Prop 4.5.4", Q454)
R("prop-4.5.4b", ["DNE:S(k)"], "LEM:DPI:D(k)", "Prop 4.5.4", Q454)

Q481 = (r"$\LEM{\n{\Gamma}} + \DNE{\Gamma}$ is equivalent to "
        r"$\LEM{\Gamma}$ over $\mathbf{HA}$")
for g in GAMMA4:
    t = tag(g)
    R(f"prop-4.8.1a-{t}", [f"LEM:{neg(g)}", f"DNE:{g}"], f"LEM:{g}",
      "Prop 4.8.1", Q481,
      verify=prop("((~a \\/ ~~a) /\\ (~~a -> a)) -> (a \\/ ~a)"))
    R(f"prop-4.8.1b-{t}", [f"LEM:{g}"], f"LEM:{neg(g)}",
      "Prop 4.8.1", Q481,
      verify=prop("(a \\/ ~a) -> (~a \\/ ~~a)"))
Q482 = (r"$\LEM{\n{\Delta_k}} + \DNE{\Sigma_{k-1}}$ is equivalent to "
        r"$\LEM{\Delta_k}$ over $\mathbf{HA}$")
R("prop-4.8.2a", ["LEM:nD(k)", "DNE:S(k-1)"], "LEM:D(k)",
  "Prop 4.8.2", Q482, guard="k>=1")
R("prop-4.8.2b", ["LEM:D(k)"], "LEM:nD(k)", "Prop 4.8.2", Q482,
  verify=prop("((a <-> p) -> (a \\/ ~a)) -> ((a <-> p) -> (~a \\/ ~~a))"))
R("prop-4.8.3", ["LEM:nS(k)"], "LEM:nD(k)", "Prop 4.8.3",
  r"$\mathbf{HA} + \LEM{\n{\Sigma_k}} \vdash \LEM{\n{\Delta_k}}$",
  verify=prop("(~a \\/ ~~a) -> ((a <-> p) -> (~a \\/ ~~a))"))
R("prop-4.8.4", ["LEM:nP(k)"], "LEM:nD(k)", "Prop 4.8.4",
  r"$\mathbf{HA} + \LEM{\n{\Pi_k}} \vdash \LEM{\n{\Delta_k}}$",
  verify=prop("(~p \\/ ~~p) -> ((a <-> p) -> (~a \\/ ~~a))",
              [{"law": "delta-premise", "lhs": "a", "rhs": "p"}]))

Q49 = (r"The following are equivalent over $\mathbf{HA} + "
       r"\DNS{\Sigma_{k-1}}$: $\LEM{\n{\Sigma_k}}$; $\LEM{\n{\Pi_k}}$.")
R("prop-4.9a", ["LEM:nS(k)", "DNS:S(k-1)"], "LEM:nP(k)", "Prop 4.9", Q49,
  guard="k>=1")
R("prop-4.9b", ["LEM:nP(k)", "DNS:S(k-1)"], "LEM:nS(k)", "Prop 4.9", Q49,
  guard="k>=1")

Q410 = (r"The following are equivalent over $\mathbf{HA}$: $\LEM{\Pi_k}$; "
        r"$\LEM{\n{\Sigma_k}} + \DNE{\Sigma_{k-1}}$; "
        r"$\LEM{\n{\Pi_k}} + \DNE{\Sigma_{k-1}}$.")
R("cor-4.10a", ["LEM:P(k)"], "LEM:nS(k)", "Cor 4.10", Q410)
R("cor-4.10b", ["LEM:nS(k)", "DNE:S(k-1)"], "LEM:P(k)", "Cor 4.10", Q410,
  guard="k>=1")
R("cor-4.10c", ["LEM:nP(k)", "DNE:S(k-1)"], "LEM:P(k)", "Cor 4.10", Q410,
  guard="k>=1")
Q411 = (r"The following are equivalent over $\mathbf{HA}$: "
        r"$\LEM{\Sigma_k}$; $\LEM{\n{\Sigma_k}} + \DNE{\Sigma_k}$; "
        r"$\LEM{\n{\Pi_k}} + \DNE{\Sigma_k}$.")
R("cor-4.11a", ["LEM:nS(k)", "DNE:S(k)"], "LEM:S(k)", "Cor 4.11", Q411)
R("cor-4.11b", ["LEM:nP(k)", "DNE:S(k)"], "LEM:S(k)", "Cor 4.11", Q411)

# ---------------------------------------------------------------------------
# De Morgan's law: basic implications (Propositions 5.1, 5.2, 5.4, 5.5)

Q511 = r"$\mathbf{HA} + \DML{(\Gamma, \Theta)} \vdash \DML{(\Delta_k, \Theta)}$"
Q512 = (r"$\mathbf{HA} + \DML{(\n{\Gamma}, \Theta)} \vdash "
        r"\DML{(\n{\Delta_k}, \Theta)}$")
SKEL51 = ("(~(a /\\ b) -> ~a \\/ ~b) -> "
          "((a <-> p) -> (~(a /\\ b) -> ~a \\/ ~b))")
SKEL52 = ("(~(~a /\\ b) -> ~~a \\/ ~b) -> "
          "((a <-> p) -> (~(~a /\\ b) -> ~~a \\/ ~b))")
for g in ["S(k)", "P(k)"]:
    for th in THETA6:
        R(f"prop-5.1.1-{tag(g)}-{tag(th)}", [f"DML:{g}:{th}"],
          f"DML:D(k):{th}", "Prop 5.1.1", Q511, verify=prop(SKEL51))
        R(f"prop-5.1.2-{tag(g)}-{tag(th)}", [f"DML:{neg(g)}:{th}"],
          f"DML:nD(k):{th}", "Prop 5.1.2", Q512, verify=prop(SKEL52))

Q521 = r"$\mathbf{HA} + \LEM{\n{\Gamma}} \vdash \DML{(\Gamma, \Theta)}$"
Q522 = r"$\mathbf{HA} + \LEM{\n{\Gamma}} \vdash \DML{(\n{\Gamma}, \Theta)}$"
Q523 = r"$\mathbf{HA} + \LEM{\n{\Delta_k}} \vdash \DML{(\Delta_k, \Theta)}$"
Q524 = (r"$\mathbf{HA} + \LEM{\n{\Delta_k}} \vdash "
        r"\DML{(\n{\Delta_k}, \Theta)}$")
SKEL521 = "(~a \\/ ~~a) -> (~(a /\\ b) -> ~a \\/ ~b)"
SKEL522 = "(~a \\/ ~~a) -> (~(~a /\\ b) -> ~~a \\/ ~b)"
for g in ["S(k)", "P(k)"]:
    for th in THETA6:
        R(f"prop-5.2.1-{tag(g)}-{tag(th)}", [f"LEM:{neg(g)}"],
          f"DML:{g}:{th}", "Prop 5.2.1", Q521, verify=prop(SKEL521))
        R(f"prop-5.2.2-{tag(g)}-{tag(th)}", [f"LEM:{neg(g)}"],
          f"DML:{neg(g)}:{th}", "Prop 5.2.2", Q522, verify=prop(SKEL522))
for th in THETA6:
    R(f"prop-5.2.3-{tag(th)}", ["LEM:nD(k)"], f"DML:D(k):{th}",
      "Prop 5.2.3", Q523)
    R(f"prop-5.2.4-{tag(th)}", ["LEM:nD(k)"], f"DML:nD(k):{th}",
      "Prop 5.2.4", Q524)

Q54 = (r"For any set $\Gamma$ of formulas, the following are equivalent "
       r"over $\mathbf{HA}$: $\LEM{\n{\Gamma}}$; "
       r"$\DML{(\Gamma, \n{\Gamma})}$.")
SKEL54 = "(~(a /\\ ~a) -> ~a \\/ ~~a) -> (~a \\/ ~~a)"
for g in ["S(k)", "P(k)"]:
    t = tag(g)
    R(f"prop-5.4-fwd-{t}", [f"LEM:{neg(g)}"], f"DML:{g}:{neg(g)}",
      "Prop 5.4", Q54, verify=prop(SKEL521))
    R(f"prop-5.4-bwd-{t}", [f"DML:{g}:{neg(g)}"], f"LEM:{neg(g)}",
      "Prop 5.4", Q54, verify=prop(SKEL54))

Q55 = (r"For $\Gamma \in \{\Sigma_k, \Pi_k\}$, the following are "
       r"equivalent over $\mathbf{HA}$: $\LEM{\n{\Delta_k}}$; "
       r"$\DML{(\Delta_k, \n{\Gamma})}$; $\DML{(\n{\Delta_k}, \Gamma)}$; "
       r"$\DML{(\Delta_k, \n{\Delta_k})}$.")
for g in ["S(k)", "P(k)"]:
    t = tag(g)
    R(f"prop-5.5a-{t}", [f"DML:D(k):{neg(g)}"], "LEM:nD(k)",
      "Prop 5.5", Q55, verify=prop("((a <-> p) -> (~(a /\\ ~a) -> "
                                   "~a \\/ ~~a)) -> ((a <-> p) -> "
                                   "(~a \\/ ~~a))"))
    R(f"prop-5.5b-{t}", [f"DML:nD(k):{g}"], "LEM:nD(k)", "Prop 5.5", Q55)
R("prop-5.5c", ["DML:D(k):nD(k)"], "LEM:nD(k)", "Prop 5.5", Q55)

# ---------------------------------------------------------------------------
# De Morgan's law over DNS (Proposition 5.6; Corollaries 5.7-5.10)

Q561 = (r"$\DML{(\n{\Sigma_k}, \Theta)}$ is equivalent to "
        r"$\DML{(\Pi_k, \Theta)}$ over $\mathbf{HA} + \DNS{\Sigma_{k-1}}$")
Q562 = (r"$\DML{(\n{\Pi_k}, \Theta)}$ is equivalent to "
        r"$\DML{(\Sigma_k, \Theta)}$ over $\mathbf{HA} + \DNS{\Sigma_{k-1}}$")
for th in THETA6:
    t = tag(th)
    R(f"prop-5.6.1a-{t}", [f"DML:nS(k):{th}", "DNS:S(k-1)"],
      f"DML:P(k):{th}", "Prop 5.6.1", Q561, guard="k>=1")
    R(f"prop-5.6.1b-{t}", [f"DML:P(k):{th}", "DNS:S(k-1)"],
      f"DML:nS(k):{th}", "Prop 5.6.1", Q561, guard="k>=1")
    R(f"prop-5.6.2a-{t}", [f"DML:nP(k):{th}", "DNS:S(k-1)"],
      f"DML:S(k):{th}", "Prop 5.6.2", Q562, guard="k>=1")
    R(f"prop-5.6.2b-{t}", [f"DML:S(k):{th}", "DNS:S(k-1)"],
      f"DML:nP(k):{th}", "Prop 5.6.2", Q562, guard="k>=1")

Q571 = (r"$\LEM{\n{\Sigma_k}}$, $\LEM{\n{\Pi_k}}$, "
        r"$\DML{(\Sigma_k, \n{\Sigma_k})}$, $\DML{(\Pi_k, \n{\Pi_k})}$, "
        r"$\DML{(\Sigma_k, \Pi_k)}$ and $\DML{(\n{\Sigma_k}, \n{\Pi_k})}$ "
        r"are equivalent over $\mathbf{HA} + \DNS{\Sigma_{k-1}}$")
R("cor-5.7.1a", ["DML:S(k):P(k)", "DNS:S(k-1)"], "LEM:nS(k)",
  "Cor 5.7.1", Q571, guard="k>=1")
R("cor-5.7.1b", ["LEM:nS(k)", "DNS:S(k-1)"], "DML:S(k):P(k)",
  "Cor 5.7.1", Q571, guard="k>=1")
R("cor-5.7.1c", ["DML:nS(k):nP(k)", "DNS:S(k-1)"], "LEM:nS(k)",
  "Cor 5.7.1", Q571, guard="k>=1")
R("cor-5.7.1d", ["LEM:nS(k)", "DNS:S(k-1)"], "DML:nS(k):nP(k)",
  "Cor 5.7.1", Q571, guard="k>=1")
Q574 = (r"For $\Gamma \in \{\Sigma_k, \Pi_k, \n{\Sigma_k}, \n{\Pi_k}\}$, "
        r"each of $\DML{(\Delta_k, \Gamma)}$ and "
        r"$\DML{(\n{\Delta_k}, \Gamma)}$ is equivalent to "
        r"$\LEM{\n{\Delta_k}}$ over $\mathbf{HA} + \DNS{\Sigma_{k-1}}$")
for g in GAMMA4:
    t = tag(g)
    R(f"cor-5.7.4a-{t}", [f"DML:D(k):{g}", "DNS:S(k-1)"], "LEM:nD(k)",
      "Cor 5.7.4", Q574, guard="k>=1")
    R(f"cor-5.7.4b-{t}", ["LEM:nD(k)", "DNS:S(k-1)"], f"DML:D(k):{g}",
      "Cor 5.7.4", Q574, guard="k>=1")
    R(f"cor-5.7.4c-{t}", [f"DML:nD(k):{g}", "DNS:S(k-1)"], "LEM:nD(k)",
      "Cor 5.7.4", Q574, guard="k>=1")
    R(f"cor-5.7.4d-{t}", ["LEM:nD(k)", "DNS:S(k-1)"], f"DML:nD(k):{g}",
      "Cor 5.7.4", Q574, guard="k>=1")

Q581 = (r"$P + \DNE{\Sigma_{k-1}}$ is equivalent to $\LEM{\Pi_k}$ over "
        r"$\mathbf{HA}$")
Q582 = (r"$P + \DNE{\Sigma_k}$ is equivalent to $\LEM{\Sigma_k}$ over "
        r"$\mathbf{HA}$")
COR58_P = [("DML:S(k):nS(k)", "s-ns"), ("DML:P(k):nP(k)", "p-np"),
           ("DML:S(k):P(k)", "s-p"), ("DML:nS(k):nP(k)", "ns-np")]
for node, t in COR58_P:
    R(f"cor-5.8.1-{t}", [node, "DNE:S(k-1)"], "LEM:P(k)", "Cor 5.8.1",
      Q581, guard="k>=1")
    R(f"cor-5.8.2-{t}", [node, "DNE:S(k)"], "LEM:S(k)", "Cor 5.8.2", Q582)

Q59 = (r"Then $P + \DNE{\Sigma_{k-1}}$ is equivalent to $\LEM{\Delta_k}$ "
       r"over $\mathbf{HA}$.")
COR59_P = ([(f"DML:D(k):{g}", f"d-{tag(g)}") for g in GAMMA4]
           + [(f"DML:nD(k):{g}", f"nd-{tag(g)}") for g in GAMMA4]
           + [("DML:D(k):nD(k)", "d-nd")])
for node, t in COR59_P:
    R(f"cor-5.9-{t}", [node, "DNE:S(k-1)"], "LEM:D(k)", "Cor 5.9", Q59,
      guard="k>=1")

Q5101 = (r"$\mathbf{HA} + \DML{\Gamma} + \DNS{\Sigma_{k-1}} \vdash "
         r"\LEM{\n{\Delta_k}}$")
Q5102 = (r"$\mathbf{HA} + \DML{\Gamma} + \DNE{\Sigma_{k-1}} \vdash "
         r"\LEM{\Delta_k}$")
for g in GAMMA4:
    t = tag(g)
    R(f"cor-5.10.1-{t}", [f"DML:{g}:{g}", "DNS:S(k-1)"], "LEM:nD(k)",
      "Cor 5.10.1", Q5101, guard="k>=1")
    R(f"cor-5.10.2-{t}", [f"DML:{g}:{g}", "DNE:S(k-1)"], "LEM:D(k)",
      "Cor 5.10.2", Q5102, guard="k>=1")

# ---------------------------------------------------------------------------
# Collection (Propositions 5.11, 5.13, 5.14; Corollary 5.21)

R("prop-5.11", ["DNE:S(k)"], "DML:P(k):P(k)", "Prop 5.11",
  r"$\mathbf{HA} + \DNE{\Sigma_k} \vdash \DML{\Pi_k}$")

Q513 = (r"The following are equivalent over $\mathbf{HA}$: "
        r"$\COLL{\Pi_{k+1}}$; $\COLL{\Sigma_k}$.")
R("prop-5.13a", ["COLL:P(k)"], "COLL:S(k-1)", "Prop 5.13", Q513, guard="k>=1")
R("prop-5.13b", ["COLL:S(k-1)"], "COLL:P(k)", "Prop 5.13", Q513, guard="k>=1")

R("prop-5.14", ["DML:S(k):S(k)", "DNE:S(k-1)"], "COLL:P(k)", "Prop 5.14",
  r"$\mathbf{HA} + \DML{\Sigma_{k+1}} + \DNE{\Sigma_k} \vdash "
  r"\COLL{\Pi_{k+1}}$", guard="k>=1")

Q521C = (r"The following are equivalent over $\mathbf{HA}$: "
         r"$\COLL{\Pi_{k+1}}$; $\DML{\Sigma_{k+1}} + \LEM{\Sigma_k}$; "
         r"$\DML{\Sigma_{k+1}} + \DNE{\Sigma_k}$.")
R("cor-5.21a", ["COLL:P(k)"], "DML:S(k):S(k)", "Cor 5.21", Q521C,
  guard="k>=1")
R("cor-5.21b", ["COLL:P(k)"], "LEM:S(k-1)", "Cor 5.21", Q521C, guard="k>=1")
R("cor-5.21c", ["DML:S(k):S(k)", "LEM:S(k-1)"], "COLL:P(k)", "Cor 5.21",
  Q521C, guard="k>=1")

# ---------------------------------------------------------------------------
# DML for the equivalence-premise classes (Propositions 5.23, 5.25;
# Corollary 5.24)

Q5231 = (r"$\mathbf{HA} + \DML{\Delta_{k+1}} + \DNS{\Sigma_{k-1}} \vdash "
         r"\LEM{\n{\Sigma_k}}$")
Q5232 = (r"$\mathbf{HA} + \DML{\n{\Delta_{k+1}}} + \DNS{\Sigma_{k-1}} "
         r"\vdash \LEM{\n{\Sigma_k}}$")
R("prop-5.23.1", ["DML:D(k)", "DNS:S(k-2)"], "LEM:nS(k-1)",
  "Prop 5.23.1", Q5231, guard="k>=1")
R("prop-5.23.2", ["DML:nD(k)", "DNS:S(k-2)"], "LEM:nS(k-1)",
  "Prop 5.23.2", Q5232, guard="k>=1")

Q5241 = (r"$\mathbf{HA} + \DML{\Gamma} + \DNE{\Sigma_{k-1}} \vdash "
         r"\LEM{\Pi_k}$")
Q5242 = (r"$\mathbf{HA} + \DML{\Gamma} + \DNE{\Sigma_k} \vdash "
         r"\LEM{\Sigma_k}$")
for g, t in [("DML:D(k)", "d"), ("DML:nD(k)", "nd")]:
    R(f"cor-5.24.1-{t}", [g, "DNE:S(k-2)"], "LEM:P(k-1)", "Cor 5.24.1",
      Q5241, guard="k>=1")
    R(f"cor-5.24.2-{t}", [g, "DNE:S(k-1)"], "LEM:S(k-1)", "Cor 5.24.2",
      Q5242, guard="k>=1")

R("prop-5.25", ["DML:D(k)", "DNE:S(k-1)"], "DML:nD(k)", "Prop 5.25",
  r"$\mathbf{HA} + \DML{\Delta_k} + \DNE{\Sigma_{k-1}} \vdash "
  r"\DML{\n{\Delta_k}}$", guard="k>=1")

# ---------------------------------------------------------------------------
# DML with duals (Proposition 5.27; Corollary 5.28)

Q5271 = (r"$\DML{(\Gamma, \Theta)}^\bot$ is equivalent to "
         r"$\DML{(\Gamma, \Theta)} + \DUAL{\Gamma} + \DUAL{\Theta}$ over "
         r"$\mathbf{HA}$")
SKELA = "(~(a /\\ b) -> da \\/ db) -> (~(a /\\ b) -> ~a \\/ ~b)"
SKELB = "(~(a /\\ ~bot) -> da \\/ ~~bot) -> (~a -> da)"
SKELC = ("((~(a /\\ b) -> ~a \\/ ~b) /\\ ((~a -> da) /\\ (~b -> db))) -> "
         "(~(a /\\ b) -> da \\/ db)")
LEMAB = [{"law": "dual-imp-neg", "phi": "a", "dual": "da"},
         {"law": "dual-imp-neg", "phi": "b", "dual": "db"}]
for x, y in [("S(k)", "S(k)"), ("P(k)", "P(k)"), ("S(k)", "P(k)")]:
    t = f"{tag(x)}-{tag(y)}"
    R(f"prop-5.27.1a-{t}", [f"DMLBOT:{x}:{y}"], f"DML:{x}:{y}",
      "Prop 5.27.1", Q5271, verify=prop(SKELA, LEMAB))
    R(f"prop-5.27.1b-{t}", [f"DMLBOT:{x}:{y}"], f"DUAL:{x}",
      "Prop 5.27.1", Q5271, verify=prop(SKELB))
    R(f"prop-5.27.1b2-{t}", [f"DMLBOT:{x}:{y}"], f"DUAL:{y}",
      "Prop 5.27.1", Q5271, verify=prop(SKELB))
    R(f"prop-5.27.1c-{t}", [f"DML:{x}:{y}", f"DUAL:{x}", f"DUAL:{y}"],
      f"DMLBOT:{x}:{y}", "Prop 5.27.1", Q5271, verify=prop(SKELC))

Q5272 = (r"$\DML{(\Delta_k, \Theta)}^\Sigma$ is equivalent to "
         r"$\DML{(\Delta_k, \Theta)} + \DUAL{\Sigma_k} + \DUAL{\Theta}$ "
         r"over $\mathbf{HA}$")
Q5273 = (r"$\DML{(\Delta_k, \Theta)}^\Pi$ is equivalent to "
         r"$\DML{(\Delta_k, \Theta)} + \DUAL{\Pi_k} + \DUAL{\Theta}$ "
         r"over $\mathbf{HA}$")
for var, dcls, q, item in [("DSI", "S(k)", Q5272, "2"),
                           ("DPI", "P(k)", Q5273, "3")]:
    for th in ["S(k)", "P(k)"]:
        t = f"{var.lower()}-{tag(th)}"
        R(f"prop-5.27.{item}a-{t}", [f"DMLBOT:{var}:D(k):{th}"],
          f"DML:D(k):{th}", f"Prop 5.27.{item}", q)
        R(f"prop-5.27.{item}b-{t}", [f"DMLBOT:{var}:D(k):{th}"],
          f"DUAL:{dcls}", f"Prop 5.27.{item}", q)
        R(f"prop-5.27.{item}b2-{t}", [f"DMLBOT:{var}:D(k):{th}"],
          f"DUAL:{th}", f"Prop 5.27.{item}", q)
        R(f"prop-5.27.{item}c-{t}",
          [f"DML:D(k):{th}", f"DUAL:{dcls}", f"DUAL:{th}"],
          f"DMLBOT:{var}:D(k):{th}", f"Prop 5.27.{item}", q)

Q5282 = (r"$\DML{(\Sigma_k, \Pi_k)}^\bot$ is equivalent to "
         r"$\LEM{\Sigma_k}$ over $\mathbf{HA}$")
R("cor-5.28.2a", ["DMLBOT:S(k):P(k)"], "LEM:S(k)", "Cor 5.28.2", Q5282)
R("cor-5.28.2b", ["LEM:S(k)"], "DMLBOT:S(k):P(k)", "Cor 5.28.2", Q5282)
Q5283 = (r"$\DML{(\Delta_k, \Sigma_k)}^\Sigma$ is equivalent to "
         r"$\LEM{\Delta_k}$ over $\mathbf{HA}$")
R("cor-5.28.3a", ["DMLBOT:DSI:D(k):S(k)"], "LEM:D(k)", "Cor 5.28.3", Q5283)
R("cor-5.28.3b", ["LEM:D(k)"], "DMLBOT:DSI:D(k):S(k)", "Cor 5.28.3", Q5283)
Q5284 = (r"$\DML{\Delta_k}^\bot$ is equivalent to $\DML{\Delta_k} + "
         r"\DNE{\Sigma_{k-1}}$ over $\mathbf{HA}$")
R("cor-5.28.4a", ["DMLBOT:D(k):D(k)"], "DML:D(k):D(k)", "Cor 5.28.4",
  Q5284, verify=prop(SKELA, LEMAB))
R("cor-5.28.4b", ["DMLBOT:D(k):D(k)"], "DNE:S(k-1)", "Cor 5.28.4", Q5284,
  guard="k>=1")
R("cor-5.28.4c", ["DML:D(k):D(k)", "DNE:S(k-1)"], "DMLBOT:D(k):D(k)",
  "Cor 5.28.4", Q5284, guard="k>=1")
Q5285 = (r"Each of $\DML{\Pi_k}^\bot$, $\DML{(\Delta_k, \Sigma_k)}^\Pi$, "
         r"$\DML{(\Delta_k, \Pi_k)}^\Sigma$ and "
         r"$\DML{(\Delta_k, \Pi_k)}^\Pi$ is equivalent to "
         r"$\DNE{\Sigma_k}$ over $\mathbf{HA}$")
for node, t in [("DMLBOT:P(k):P(k)", "pbot"),
                ("DMLBOT:DPI:D(k):S(k)", "dsp"),
                ("DMLBOT:DSI:D(k):P(k)", "dps"),
                ("DMLBOT:DPI:D(k):P(k)", "dpp")]:
    R(f"cor-5.28.5a-{t}", [node], "DNE:S(k)", "Cor 5.28.5", Q5285)
    R(f"cor-5.28.5b-{t}", ["DNE:S(k)"], node, "Cor 5.28.5", Q5285)

# ---------------------------------------------------------------------------
# DNE of disjunctions (Propositions 6.1, 6.2, 6.5; Corollaries 6.3, 6.4)

Q61 = (r"For any sets $\Gamma$ and $\Theta$ of formulas, the following "
       r"are equivalent over $\mathbf{HA}$: $\DML{(\Gamma, \Theta)}$; "
       r"$\DNE{(\n{\Gamma} \lor \n{\Theta})}$.")
SKEL61F = ("(~(a /\\ b) -> ~a \\/ ~b) -> "
           "(~~(~a \\/ ~b) -> ~a \\/ ~b)")
SKEL61B = ("(~~(~a \\/ ~b) -> ~a \\/ ~b) -> "
           "(~(a /\\ b) -> ~a \\/ ~b)")
_61_pairs = []
_base = ["S(k)", "P(k)", "nS(k)", "nP(k)"]
for i, x in enumerate(_base):
    for y in _base[i:]:
        _61_pairs.append((x, y))
_61_pairs += [("D(k)", "S(k)"), ("D(k)", "P(k)"), ("D(k)", "D(k)"),
              ("D(k)", "nD(k)"), ("nD(k)", "nD(k)")]
for x, y in _61_pairs:
    t = f"{tag(x)}-{tag(y)}"
    R(f"prop-6.1a-{t}", [f"DML:{x}:{y}"], f"DNEOR:{neg(x)}:{neg(y)}",
      "Prop 6.1", Q61, verify=prop(SKEL61F))
    R(f"prop-6.1b-{t}", [f"DNEOR:{neg(x)}:{neg(y)}"], f"DML:{x}:{y}",
      "Prop 6.1", Q61, verify=prop(SKEL61B))

Q621 = r"$\mathbf{HA} + \DNE{(\Gamma \lor \Theta)} \vdash \DNE{\Gamma}$"
for g in GAMMA3:
    for th in THETA7:
        R(f"prop-6.2.1-{tag(g)}-{tag(th)}", [f"DNEOR:{g}:{th}"],
          f"DNE:{g}", "Prop 6.2.1", Q621)

Q623 = (r"$\DNE{(\n{\Sigma_k} \lor \Theta)} + \DNE{\Sigma_{k-1}}$ is "
        r"equivalent to $\DNE{(\Pi_k \lor \Theta)}$ over $\mathbf{HA}$")
Q625 = (r"$\DNE{(\n{\Pi_k} \lor \Theta)} + \DNE{\Sigma_k}$ is equivalent "
        r"to $\DNE{(\Sigma_k \lor \Theta)}$ over $\mathbf{HA}$")
Q626 = (r"$\DNE{(\dn{\Sigma_k} \lor \Theta)}$ is equivalent to "
        r"$\DNE{(\n{\Pi_k} \lor \Theta)}$ over $\mathbf{HA} + "
        r"\DNS{\Sigma_{k-1}}$")
Q628 = (r"$\DNE{(\dn{\Pi_k} \lor \Theta)}$ is equivalent to "
        r"$\DNE{(\n{\Sigma_k} \lor \Theta)}$ over $\mathbf{HA} + "
        r"\DNS{\Sigma_{k-1}}$")
Q6210 = (r"$\DNE{(\dn{\Delta_k} \lor \Theta)} + \DNE{\Sigma_{k-1}}$ is "
         r"equivalent to $\DNE{(\Delta_k \lor \Theta)}$ over $\mathbf{HA}$")
for th in THETA7:
    t = tag(th)
    R(f"prop-6.2.3a-{t}", [f"DNEOR:nS(k):{th}", "DNE:S(k-1)"],
      f"DNEOR:P(k):{th}", "Prop 6.2.3", Q623, guard="k>=1")
    R(f"prop-6.2.3b-{t}", [f"DNEOR:P(k):{th}"], f"DNEOR:nS(k):{th}",
      "Prop 6.2.3", Q623)
    R(f"prop-6.2.5a-{t}", [f"DNEOR:nP(k):{th}", "DNE:S(k)"],
      f"DNEOR:S(k):{th}", "Prop 6.2.5", Q625)
    R(f"prop-6.2.5b-{t}", [f"DNEOR:S(k):{th}"], f"DNEOR:nP(k):{th}",
      "Prop 6.2.5", Q625)
    R(f"prop-6.2.6a-{t}", [f"DNEOR:nnS(k):{th}", "DNS:S(k-1)"],
      f"DNEOR:nP(k):{th}", "Prop 6.2.6", Q626, guard="k>=1")
    R(f"prop-6.2.6b-{t}", [f"DNEOR:nP(k):{th}", "DNS:S(k-1)"],
      f"DNEOR:nnS(k):{th}", "Prop 6.2.6", Q626, guard="k>=1")
    R(f"prop-6.2.8a-{t}", [f"DNEOR:nnP(k):{th}", "DNS:S(k-1)"],
      f"DNEOR:nS(k):{th}", "Prop 6.2.8", Q628, guard="k>=1")
    R(f"prop-6.2.8b-{t}", [f"DNEOR:nS(k):{th}", "DNS:S(k-1)"],
      f"DNEOR:nnP(k):{th}", "Prop 6.2.8", Q628, guard="k>=1")
    R(f"prop-6.2.10a-{t}", [f"DNEOR:nnD(k):{th}", "DNE:S(k-1)"],
      f"DNEOR:D(k):{th}", "Prop 6.2.10", Q6210, guard="k>=1")
    R(f"prop-6.2.10b-{t}", [f"DNEOR:D(k):{th}"], f"DNEOR:nnD(k):{th}",
      "Prop 6.2.10", Q6210)

Q624 = (r"$\DNE{(\n{\Sigma_k} \lor \Gamma)}$ is equivalent to "
        r"$\DNE{(\Pi_k \lor \Gamma)}$ over $\mathbf{HA}$")
Q627 = (r"$\DNE{(\dn{\Sigma_k} \lor \Gamma)}$ is equivalent to "
        r"$\DNE{(\n{\Pi_k} \lor \Gamma)}$ over $\mathbf{HA}$")
Q629 = (r"$\DNE{(\dn{\Pi_k} \lor \Gamma)}$ is equivalent to "
        r"$\DNE{(\Pi_k \lor \Gamma)}$ over $\mathbf{HA}$")
Q6211 = (r"$\DNE{(\dn{\Delta_k} \lor \Gamma)}$ is equivalent to "
         r"$\DNE{(\Delta_k \lor \Gamma)}$ over $\mathbf{HA}$")
for g in GAMMA3:
    t = tag(g)
    R(f"prop-6.2.4a-{t}", [f"DNEOR:nS(k):{g}"], f"DNEOR:P(k):{g}",
      "Prop 6.2.4", Q624)
    R(f"prop-6.2.4b-{t}", [f"DNEOR:P(k):{g}"], f"DNEOR:nS(k):{g}",
      "Prop 6.2.4", Q624)
    R(f"prop-6.2.7a-{t}", [f"DNEOR:nnS(k):{g}"], f"DNEOR:nP(k):{g}",
      "Prop 6.2.7", Q627)
    R(f"prop-6.2.7b-{t}", [f"DNEOR:nP(k):{g}"], f"DNEOR:nnS(k):{g}",
      "Prop 6.2.7", Q627)
    R(f"prop-6.2.9a-{t}", [f"DNEOR:nnP(k):{g}"], f"DNEOR:P(k):{g}",
      "Prop 6.2.9", Q629)
    R(f"prop-6.2.9b-{t}", [f"DNEOR:P(k):{g}"], f"DNEOR:nnP(k):{g}",
      "Prop 6.2.9", Q629)
    R(f"prop-6.2.11a-{t}", [f"DNEOR:nnD(k):{g}"], f"DNEOR:D(k):{g}",
      "Prop 6.2.11", Q6211)
    R(f"prop-6.2.11b-{t}", [f"DNEOR:D(k):{g}"], f"DNEOR:nnD(k):{g}",
      "Prop 6.2.11", Q6211)

Q631 = (r"For $\Gamma' \in \{\Sigma_k, \Delta_k, \n{\Pi_k}, "
        r"\n{\Delta_k}, \dn{\Sigma_k}, \dn{\Delta_k}\}$, "
        r"$\DNE{(\Sigma_k \lor \Gamma')}$ is equivalent to "
        r"$\DNE{\Sigma_k}$ over $\mathbf{HA}$")
for gp in ["S(k)", "D(k)", "nP(k)", "nD(k)", "nnS(k)", "nnD(k)"]:
    R(f"cor-6.3.1-{tag(gp)}", ["DNE:S(k)"], f"DNEOR:S(k):{gp}",
      "Cor 6.3.1", Q631)

Q632 = (r"$\LEM{\Sigma_k}$, $\DNE{(\Sigma_k \lor \Pi_k)}$, "
        r"$\DNE{(\Sigma_k \lor \n{\Sigma_k})}$ and "
        r"$\DNE{(\Sigma_k \lor \dn{\Pi_k})}$ are equivalent over "
        r"$\mathbf{HA}$")
R("cor-6.3.2a", ["LEM:S(k)"], "DNEOR:S(k):P(k)", "Cor 6.3.2", Q632)
R("cor-6.3.2b", ["DNEOR:S(k):P(k)"], "LEM:S(k)", "Cor 6.3.2", Q632)
Q633 = (r"$\LEM{\Pi_k}$, $\DNE{(\n{\Pi_k} \lor \Pi_k)}$ and "
        r"$\DNE{(\dn{\Sigma_k} \lor \Pi_k)}$ are equivalent over "
        r"$\mathbf{HA}$")
R("cor-6.3.3a", ["LEM:P(k)"], "DNEOR:nP(k):P(k)", "Cor 6.3.3", Q633)
R("cor-6.3.3b", ["DNEOR:nP(k):P(k)"], "LEM:P(k)", "Cor 6.3.3", Q633)
Q634 = (r"$\DML{\Sigma_k}^\bot$, $\DNE{(\Pi_k \lor \Pi_k)}$, "
        r"$\DNE{(\Pi_k \lor \n{\Sigma_k})}$ and "
        r"$\DNE{(\Pi_k \lor \dn{\Pi_k})}$ are equivalent over "
        r"$\mathbf{HA}$")
R("cor-6.3.4a", ["DMLBOT:S(k):S(k)"], "DNEOR:P(k):P(k)", "Cor 6.3.4", Q634)
R("cor-6.3.4b", ["DNEOR:P(k):P(k)"], "DMLBOT:S(k):S(k)", "Cor 6.3.4", Q634)
Q635 = (r"Then $\LEM{\Delta_k}$, $\DNE{(\Delta_k \lor \n{(\Gamma')})}$ "
        r"and $\DNE{(\Gamma'' \lor \Pi_k)}$ are equivalent over "
        r"$\mathbf{HA}$")
for gp in GAMMA4 + ["D(k)"]:
    t = tag(gp)
    R(f"cor-6.3.5a-{t}", ["LEM:D(k)"], f"DNEOR:D(k):{neg(gp)}",
      "Cor 6.3.5", Q635)
    R(f"cor-6.3.5b-{t}", [f"DNEOR:D(k):{neg(gp)}"], "LEM:D(k)",
      "Cor 6.3.5", Q635)
for gpp in ["D(k)", "nD(k)", "nnD(k)"]:
    t = tag(gpp)
    R(f"cor-6.3.5c-{t}", ["LEM:D(k)"], f"DNEOR:{gpp}:P(k)",
      "Cor 6.3.5", Q635)
    R(f"cor-6.3.5d-{t}", [f"DNEOR:{gpp}:P(k)"], "LEM:D(k)",
      "Cor 6.3.5", Q635)

Q636 = (r"$\DNE{(\Delta_k \lor \Delta_k)}$, "
        r"$\DNE{(\Delta_k \lor \dn{\Delta_k})}$ and "
        r"$\DML{\n{\Delta_k}} + \DNE{\Sigma_{k-1}}$ are equivalent over "
        r"$\mathbf{HA}$")
R("cor-6.3.6a", ["DNEOR:D(k):D(k)"], "DNEOR:D(k):nnD(k)",
  "Cor 6.3.6", Q636)
R("cor-6.3.6b", ["DNEOR:D(k):nnD(k)"], "DNEOR:D(k):D(k)",
  "Cor 6.3.6", Q636)
R("cor-6.3.6c", ["DNEOR:D(k):D(k)"], "DML:nD(k):nD(k)", "Cor 6.3.6", Q636)
R("cor-6.3.6d", ["DNEOR:D(k):D(k)"], "DNE:S(k-1)", "Cor 6.3.6", Q636,
  guard="k>=1")
R("cor-6.3.6e", ["DML:nD(k):nD(k)", "DNE:S(k-1)"], "DNEOR:D(k):D(k)",
  "Cor 6.3.6", Q636, guard="k>=1")

R("cor-6.4", ["LEM:D(k)"], "DNEOR:D(k):D(k)", "Cor 6.4",
  r"$\mathbf{HA} + \LEM{\Delta_k} \vdash \DNE{(\Delta_k \lor \Delta_k)}$",
  verify=prop("((a \\/ ~a) /\\ (b \\/ ~b)) -> (~~(a \\/ b) -> a \\/ b)"))
R("prop-6.5", ["DNEOR:D(k):D(k)"], "LEM:S(k-1)", "Prop 6.5",
  r"$\mathbf{HA} + \DNE{(\Delta_{k+1} \lor \Delta_{k+1})} \vdash "
  r"\LEM{\Sigma_k}$", guard="k>=1")

# ---------------------------------------------------------------------------
# Peirce's principle

QPEIRCE = (r"For any set $\Gamma$ of formulas, $\PEIRCE{\Gamma}$ is "
           r"equivalent to $\DNE{\Gamma}$ over $\mathbf{HA}$.")
for g in ["S(k)", "P(k)", "D(k)", "nS(k)", "nP(k)"]:
    t = tag(g)
    R(f"prop-peirce-a-{t}", [f"PEIRCE:{g}"], f"DNE:{g}", "§6 Prop (Peirce)",
      QPEIRCE, verify=prop("(((a -> bot) -> a) -> a) -> (~~a -> a)"))
    R(f"prop-peirce-b-{t}", [f"DNE:{g}"], f"PEIRCE:{g}", "§6 Prop (Peirce)",
      QPEIRCE, verify=prop("(~~a -> a) -> (((a -> b) -> a) -> a)"))

# ---------------------------------------------------------------------------
# Table 1: principles equivalent to DNE(Gamma v Theta) over HA + DNS

QT1 = (r"Principles equivalent to $\DNE{(\Gamma \lor \Theta)}$ over "
       r"$\mathbf{HA} + \DNS{\Sigma_{k-1}}$")
TABLE1 = [
    ("S(k)", "S(k)", "DNE:S(k)"),
    ("S(k)", "nP(k)", "DNE:S(k)"),
    ("S(k)", "P(k)", "LEM:S(k)"),
    ("S(k)", "nS(k)", "LEM:S(k)"),
    ("nP(k)", "nP(k)", "DML:P(k):P(k)"),
    ("nP(k)", "P(k)", "LEM:P(k)"),
    ("nP(k)", "nS(k)", "LEM:nS(k)"),
    ("P(k)", "P(k)", "DMLBOT:S(k):S(k)"),
    ("P(k)", "nS(k)", "DMLBOT:S(k):S(k)"),
    ("nS(k)", "nS(k)", "DML:S(k):S(k)"),
    ("S(k)", "D(k)", "DNE:S(k)"),
    ("S(k)", "nD(k)", "DNE:S(k)"),
    ("S(k)", "nnD(k)", "DNE:S(k)"),
    ("nP(k)", "D(k)", "LEM:D(k)"),
    ("nP(k)", "nD(k)", "LEM:nD(k)"),
    ("nP(k)", "nnD(k)", "LEM:nD(k)"),
    ("P(k)", "D(k)", "LEM:D(k)"),
    ("P(k)", "nD(k)", "LEM:D(k)"),
    ("P(k)", "nnD(k)", "LEM:D(k)"),
    ("nS(k)", "D(k)", "LEM:D(k)"),
    ("nS(k)", "nD(k)", "LEM:nD(k)"),
    ("nS(k)", "nnD(k)", "LEM:nD(k)"),
    ("D(k)", "nD(k)", "LEM:D(k)"),
    ("D(k)", "nnD(k)", "DNEOR:D(k):D(k)"),
    ("nD(k)", "nD(k)", "DML:D(k):D(k)"),
    ("nD(k)", "nnD(k)", "LEM:nD(k)"),
    ("nnD(k)", "nnD(k)", "DML:nD(k):nD(k)"),
]
for x, y, equiv in TABLE1:
    t = f"{tag(x)}-{tag(y)}"
    node = f"DNEOR:{x}:{y}"
    R(f"table-1a-{t}", [node, "DNS:S(k-1)"], equiv, "Table 1", QT1,
      guard="k>=1")
    R(f"table-1b-{t}", [equiv, "DNS:S(k-1)"], node, "Table 1", QT1,
      guard="k>=1")

# ---------------------------------------------------------------------------
# Constant domain (Propositions 7.2-7.5, 7.8-7.10; Corollaries 7.6, 7.7,
# 7.11)

Q721 = (r"$\CD{(\Gamma, \Pi_{k+1})}$ is equivalent to "
        r"$\CD{(\Gamma, \Sigma_k)}$ over $\mathbf{HA}$")
Q722 = (r"$\CD{(\Gamma, \n{\Sigma_{k+1}})}$ is equivalent to "
        r"$\CD{(\Gamma, \n{\Pi_k})}$ over $\mathbf{HA}$")
for g in THETA6:
    t = tag(g)
    R(f"prop-7.2.1a-{t}", [f"CD:{g}:P(k)"], f"CD:{g}:S(k-1)",
      "Prop 7.2.1", Q721, guard="k>=1")
    R(f"prop-7.2.1b-{t}", [f"CD:{g}:S(k-1)"], f"CD:{g}:P(k)",
      "Prop 7.2.1", Q721, guard="k>=1")
    R(f"prop-7.2.2a-{t}", [f"CD:{g}:nS(k)"], f"CD:{g}:nP(k-1)",
      "Prop 7.2.2", Q722, guard="k>=1")
    R(f"prop-7.2.2b-{t}", [f"CD:{g}:nP(k-1)"], f"CD:{g}:nS(k)",
      "Prop 7.2.2", Q722, guard="k>=1")

Q731 = r"$\mathbf{HA} + \LEM{\Gamma} \vdash \CD{(\Gamma, \Theta)}$"
Q732 = r"$\mathbf{HA} + \LEM{\Delta_k} \vdash \CD{(\Delta_k, \Theta)}$"
for g in GAMMA4:
    for th in THETA6:
        R(f"prop-7.3.1-{tag(g)}-{tag(th)}", [f"LEM:{g}"], f"CD:{g}:{th}",
          "Prop 7.3.1", Q731)
for th in THETA6:
    R(f"prop-7.3.2-{tag(th)}", ["LEM:D(k)"], f"CD:D(k):{th}",
      "Prop 7.3.2", Q732)

Q74 = (r"Then the following are equivalent over $\mathbf{HA}$: "
       r"$\CD{(\Sigma_k, \Theta)}$; $\LEM{\Sigma_k}$.")
for th in GAMMA3:
    R(f"prop-7.4-{tag(th)}", [f"CD:S(k):{th}"], "LEM:S(k)", "Prop 7.4", Q74)
R("prop-7.4-s_", ["CD:S(k):S(k-1)"], "LEM:S(k)", "Prop 7.4", Q74,
  guard="k>=1")

Q75 = (r"The following are equivalent over $\mathbf{HA}$: "
       r"$\CD{(\Pi_k, \Pi_k)}$; $\DML{\Sigma_k}^\bot$.")
R("prop-7.5a", ["CD:P(k):P(k)"], "DMLBOT:S(k):S(k)", "Prop 7.5", Q75)
R("prop-7.5b", ["DMLBOT:S(k):S(k)"], "CD:P(k):P(k)", "Prop 7.5", Q75)

Q76 = (r"For $k \geq 1$, the following are equivalent over $\mathbf{HA}$: "
       r"$\DML{\Sigma_k} + \DNE{\Sigma_{k-1}}$; $\DML{\Sigma_k}^\bot$; "
       r"$\CD{(\Pi_k, \Pi_k)}$; $\COLL{\Pi_k}$; "
       r"$\DNE{(\Pi_k \lor \Pi_k)}$.")
R("cor-7.6a", ["DMLBOT:S(k):S(k)"], "DML:S(k):S(k)", "Cor 7.6", Q76,
  guard="k>=1", verify=prop(SKELA, LEMAB))
R("cor-7.6b", ["DMLBOT:S(k):S(k)"], "DNE:S(k-1)", "Cor 7.6", Q76,
  guard="k>=1")
R("cor-7.6c", ["DML:S(k):S(k)", "DNE:S(k-1)"], "DMLBOT:S(k):S(k)",
  "Cor 7.6", Q76, guard="k>=1")
R("cor-7.6d", ["DMLBOT:S(k):S(k)"], "COLL:P(k)", "Cor 7.6", Q76,
  guard="k>=1")
R("cor-7.6e", ["COLL:P(k)"], "DMLBOT:S(k):S(k)", "Cor 7.6", Q76,
  guard="k>=1")
R("cor-7.6f", ["DMLBOT:S(k):S(k)"], "DNEOR:P(k):P(k)", "Cor 7.6", Q76,
  guard="k>=1")
R("cor-7.6g", ["DNEOR:P(k):P(k)"], "DMLBOT:S(k):S(k)", "Cor 7.6", Q76,
  guard="k>=1")

Q77 = (r"For $k \geq 1$, each of $\DML{\Sigma_k}^\bot$, "
       r"$\CD{(\Pi_k, \Pi_k)}$, $\COLL{\Pi_k}$ and "
       r"$\DNE{(\Pi_k \lor \Pi_k)}$ implies $\DML{\Pi_k}$ over "
       r"$\mathbf{HA}$.")
for node, t in [("DMLBOT:S(k):S(k)", "bot"), ("CD:P(k):P(k)", "cd"),
                ("COLL:P(k)", "coll"), ("DNEOR:P(k):P(k)", "dne")]:
    R(f"cor-7.7-{t}", [node], "DML:P(k):P(k)", "Cor 7.7", Q77, guard="k>=1")

Q78 = (r"Then the following are equivalent over $\mathbf{HA}$: "
       r"$\CD{(\Delta_k, \Theta)}$; $\LEM{\Delta_k}$.")
for th in GAMMA3:
    R(f"prop-7.8-{tag(th)}", [f"CD:D(k):{th}"], "LEM:D(k)", "Prop 7.8", Q78)
R("prop-7.8-s_", ["CD:D(k):S(k-1)"], "LEM:D(k)", "Prop 7.8", Q78,
  guard="k>=1")

Q791 = (r"$\mathbf{HA} + \DML{(\Gamma, \Sigma_k)} \vdash "
        r"\CD{(\n{\Gamma}, \n{\Sigma_k})}$")
Q792 = (r"$\mathbf{HA} + \DML{(\Delta_k, \Sigma_k)} \vdash "
        r"\CD{(\n{\Delta_k}, \n{\Sigma_k})}$")
for g in GAMMA4:
    R(f"prop-7.9.1-{tag(g)}", [f"DML:{g}:S(k)"], f"CD:{neg(g)}:nS(k)",
      "Prop 7.9.1", Q791)
R("prop-7.9.2", ["DML:D(k):S(k)"], "CD:nD(k):nS(k)", "Prop 7.9.2", Q792)

Q7101 = (r"$\mathbf{HA} + \CD{(\n{\Pi_k}, \n{\Sigma_k})} + "
         r"\DNS{\Sigma_{k-2}} \vdash \DML{(\Sigma_k, \Pi_k)}$")
Q7102 = (r"$\mathbf{HA} + \CD{(\n{\Sigma_k}, \n{\Sigma_k})} + "
         r"\DNS{\Sigma_{k-2}} \vdash \DML{\Sigma_k}$")
Q7103 = (r"$\mathbf{HA} + \CD{(\n{\Delta_k}, \n{\Sigma_k})} + "
         r"\DNS{\Sigma_{k-2}} \vdash \DML{(\Delta_k, \Sigma_k)}$")
R("prop-7.10.1", ["CD:nP(k):nS(k)", "DNS:S(k-2)"], "DML:P(k):S(k)",
  "Prop 7.10.1", Q7101, guard="k>=1")
R("prop-7.10.2", ["CD:nS(k):nS(k)", "DNS:S(k-2)"], "DML:S(k):S(k)",
  "Prop 7.10.2", Q7102, guard="k>=1")
R("prop-7.10.3", ["CD:nD(k):nS(k)", "DNS:S(k-2)"], "DML:D(k):S(k)",
  "Prop 7.10.3", Q7103, guard="k>=1")

Q7111 = (r"$\CD{(\n{\Pi_k}, \n{\Sigma_k})}$ is equivalent to "
         r"$\DML{(\Sigma_k, \Pi_k)}$ over $\mathbf{HA} + \DNS{\Sigma_{k-2}}$")
Q7112 = (r"$\CD{(\n{\Pi_k}, \Theta)}$ is equivalent to $\LEM{\n{\Pi_k}}$ "
         r"over $\mathbf{HA} + \DNS{\Sigma_{k-1}}$")
Q7113 = (r"$\CD{(\n{\Sigma_k}, \n{\Sigma_k})}$ is equivalent to "
         r"$\DML{\Sigma_k}$ over $\mathbf{HA} + \DNS{\Sigma_{k-2}}$")
Q7114 = (r"$\CD{(\n{\Delta_k}, \n{\Sigma_k})}$ is equivalent to "
         r"$\DML{(\Delta_k, \Sigma_k)}$ over $\mathbf{HA} + "
         r"\DNS{\Sigma_{k-2}}$")
Q7115 = (r"$\CD{(\n{\Delta_k}, \Theta)}$ is equivalent to "
         r"$\LEM{\n{\Delta_k}}$ over $\mathbf{HA} + \DNS{\Sigma_{k-1}}$")
R("cor-7.11.1", ["DML:P(k):S(k)", "DNS:S(k-2)"], "CD:nP(k):nS(k)",
  "Cor 7.11.1", Q7111, guard="k>=1")
for th, t in [("nS(k)", "ns"), ("nP(k-1)", "np_")]:
    R(f"cor-7.11.2-{t}", [f"CD:nP(k):{th}", "DNS:S(k-1)"], "LEM:nP(k)",
      "Cor 7.11.2", Q7112, guard="k>=1")
    R(f"cor-7.11.5-{t}", [f"CD:nD(k):{th}", "DNS:S(k-1)"], "LEM:nD(k)",
      "Cor 7.11.5", Q7115, guard="k>=1")
R("cor-7.11.3", ["DML:S(k):S(k)", "DNS:S(k-2)"], "CD:nS(k):nS(k)",
  "Cor 7.11.3", Q7113, guard="k>=1")
R("cor-7.11.4", ["DML:D(k):S(k)", "DNS:S(k-2)"], "CD:nD(k):nS(k)",
  "Cor 7.11.4", Q7114, guard="k>=1")

# ---------------------------------------------------------------------------
# Separation facts

S("sep-dml-s1", [], "DML:S1:S1", "Remark 5.15",
  r"it is known that $\mathbf{HA} \nvdash \DML{\Sigma_1}$")
S("sep-dne-s1", [], "DNE:S1", "§3 remark",
  r"It is known that $\DNE{\Sigma_1}$ is not provable in $\mathbf{HA}$")
S("sep-finsy", ["DML:S(k):S(k)", "DNE:S(k)"], "LEM:nS(k)",
  "§8, [FINSY] Ex. 10",
  r"All the underivability results in \cite{ABHK} obtained by using "
  r"several kinds of functional interpretations can be proven uniformly "
  r"in the methodology (see \cite[Example 10]{FINSY}).", guard="k>=1")
Q8 = (r"one can also prove $\LEM{\Sigma_{k-1}} \not \to "
      r"\DML{\n{\Delta_k}}$, $\LEM{\Sigma_{k-1}} + \DML{\n{\Delta_k}} "
      r"\not \to \DML{\Delta_k}$ and $\LEM{\Sigma_{k-1}} + "
      r"\DML{\Delta_k} \not \to \LEM{\Delta_k}$ by this method.")
S("sep-8a", ["LEM:S(k-1)"], "DML:nD(k)", "§8, [F20] §3", Q8, guard="k>=1")
S("sep-8b", ["LEM:S(k-1)", "DML:nD(k)"], "DML:D(k)", "§8, [F20] §3", Q8,
  guard="k>=1")
S("sep-8c", ["LEM:S(k-1)", "DML:D(k)"], "LEM:D(k)", "§8, [F20] §3", Q8,
  guard="k>=1")

INCLUSIONS = sorted([
    "LEM", "DNE", "DNS", "DML", "LEMBOT", "DMLBOT", "DNEOR",
    "PEIRCE", "DUAL", "WDUAL", "LN", "CD", "COLL",
])


def render():
    """The text of the rule base file."""
    data = {
        "rules": RULES,
        "inclusions": INCLUSIONS,
        "separations": SEPARATIONS,
    }
    return json.dumps(data, indent=1) + "\n"


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    out = root / "src" / "sca" / "data" / "rulebase.json"
    text = render()
    sys.path.insert(0, str(root / "src"))
    from sca import derivability
    try:
        rb = derivability.load_rulebase(text)
    except derivability.SchemaError as e:
        raise SystemExit(f"the rule base does not load: {e}") from None
    report = derivability.verify_rulebase(rb)
    bad = [rid for rid, st in report.statuses if st == derivability.FAILED]
    if bad:
        raise SystemExit(f"skeleton verification failed for: {bad}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out}: {len(RULES)} rules, {len(SEPARATIONS)} "
          f"separations, {report.verified} verified propositionally")


if __name__ == "__main__":
    main()
