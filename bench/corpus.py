"""Seeded inputs for the three workloads, each built together with its
known answer.

Nothing here imports fluxq: the programs and documents are text, and the
expected verdicts, rule ids, synthesized types and outputs are fixed by
construction from the typing rules and reference semantics in ``ref``.  A
change to fluxq's own generators therefore cannot change a workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import ref
from ref import BOOL, EMPTY, STRING, alt, elem, seq, star, var

_WORDS = ("ak", "bo", "cu", "da", "ek", "fi", "go", "hu", "ix", "jo", "ka",
          "lu", "me", "nu", "ob", "pa", "qu", "ri", "su", "te", "uv", "vo",
          "wi", "xe", "yo", "zu")


def _labels(rng: random.Random, k: int) -> list[str]:
    return [f"{w}{rng.randrange(10)}" for w in rng.sample(_WORDS, k)]


# --- typecheck corpus ---------------------------------------------------------


@dataclass
class Program:
    """One ``fluxq check`` input and the answer it must produce."""

    stratum: str
    name: str
    text: str | None  # None: an existing file, ``path`` relative to the root
    path: str = ""
    extra: tuple[str, ...] = ()
    rc: int = 0
    type: str | None = None  # synthesized type printed by ``--json check``
    rules: tuple[str, ...] = ()  # rule ids of the diagnostics, in order
    n: int = 0  # family size for the scaling strata


# Golden answers for the four samples, from the README and the acceptance
# and CLI tests.
SAMPLES = (
    Program("samples", "leaves", None, "samples/leaves.muxq",
            type="leaf[string]*"),
    Program("samples", "children", None, "samples/children.muxq",
            extra=("--tree", "x=a[b[]*,c[]?]"), type="b[]*,c[]?"),
    Program("samples", "insert_after", None, "samples/insert_after.flux",
            type="a[(b[],c[])*,c[]],d[]"),
    Program("samples", "leafupd", None, "samples/leafupd.flux", type="Tree*"),
)


@dataclass
class _Sig:
    """A recursive signature ``T = r[l[string] | n[T*]]`` with fresh names,
    a leaf-collecting function, a wrapping function and a leaf-overwriting
    procedure over it."""

    name: str
    r: str
    l: str
    n: str
    w: str
    defs: dict = field(default_factory=dict)

    @classmethod
    def make(cls, rng: random.Random) -> "_Sig":
        r, l, n, w = _labels(rng, 4)
        name = rng.choice(("Tree", "Doc", "Part", "Item")) + str(rng.randrange(100))
        sig = cls(name, r, l, n, w)
        sig.defs = {name: elem(r, alt(elem(l, STRING), elem(n, star(var(name)))))}
        return sig

    def text(self, procedures: bool) -> str:
        T = self.name
        out = [f"type {T} = {self.r}[{self.l}[string] | {self.n}[{T}*]]",
               f"declare function collect($x : {T}) : {self.l}[string]* {{\n"
               f"  $x/{self.l}, for $z in $x/{self.n}/* return collect($z)\n}};",
               f"declare function wrap($x : {T}) : {self.w}[{T}] {{ {self.w}[$x] }};"]
        if procedures:
            out.append(
                f"declare procedure over($x : string) : {T} => {T} {{\n"
                f"  iter[children[iter[ {self.l}?children[(delete; insert $x)]\n"
                f"                    ; {self.n}?children[iter[over($x)]] ]]]\n}};")
        return "\n".join(out) + "\n"

    def doc(self, rng: random.Random, depth: int):
        """A random value of T, as a reference value."""
        if depth <= 0 or rng.random() < 0.4:
            return ref.node(self.r, ref.node(self.l, ref.text(rng.choice(_WORDS))))
        kids = [self.doc(rng, depth - 1) for _ in range(rng.randint(0, 3))]
        return ref.node(self.r, ref.node(self.n, *kids))


def _filter(t, label, defs):
    """The type of ``e::label``: ``label`` elements kept, every other atom
    replaced by ``()``, the structure unchanged."""
    tag = t[0]
    if tag == "L":
        return t if t[1] == label else EMPTY
    if tag in ("B", "S", "E"):
        return EMPTY
    if tag in ("O", "Q"):
        return (tag, _filter(t[1], label, defs), _filter(t[2], label, defs))
    if tag == "K":
        return star(_filter(t[1], label, defs))
    return _filter(defs[t[1]], label, defs)


def _each_atom(t, f, defs):
    """Structural recursion over ``t``, replacing each atom ``a`` by
    ``f(a)``: the shape of both iteration rules."""
    tag = t[0]
    if tag == "E":
        return EMPTY
    if ref.is_atom(t):
        return f(t)
    if tag in ("O", "Q"):
        return (tag, _each_atom(t[1], f, defs), _each_atom(t[2], f, defs))
    if tag == "K":
        return star(_each_atom(t[1], f, defs))
    return _each_atom(defs[t[1]], f, defs)


def _atoms(t, defs, seen=()):
    """The atoms at the top level of ``t``, unfolding each variable once."""
    tag = t[0]
    if ref.is_atom(t):
        return [t]
    if tag in ("O", "Q"):
        return _atoms(t[1], defs, seen) + _atoms(t[2], defs, seen)
    if tag == "K":
        return _atoms(t[1], defs, seen)
    if tag == "V" and t[1] not in seen:
        return _atoms(defs[t[1]], defs, seen + (t[1],))
    return []


class _QueryGen:
    """Random well-typed queries, each with the type the algorithmic
    rules synthesize for it."""

    def __init__(self, rng: random.Random, sig: _Sig):
        self.rng = rng
        self.sig = sig
        self.fresh = 0

    def _var(self) -> str:
        self.fresh += 1
        return f"v{self.fresh}"

    def expr(self, depth: int, env: dict):
        rng = self.rng
        if depth <= 0:
            choices = ["empty", "str", "bool", "leaf"] + (["var"] if env else [])
        else:
            choices = ["elem", "concat", "if", "let", "for", "filter", "call",
                       "wrap", "elem", "concat"] + (["var"] if env else [])
        kind = rng.choice(choices)
        if kind == "empty":
            return "()", EMPTY
        if kind == "str":
            return f'"{rng.choice(_WORDS)}"', STRING
        if kind == "bool":
            return rng.choice(("true", "false")), BOOL
        if kind == "leaf":
            label = rng.choice(_labels(rng, 3))
            return f"{label}[]", elem(label)
        if kind == "var":
            name = rng.choice(sorted(env))
            return f"${name}", env[name]
        if kind == "elem":
            label = rng.choice(_labels(rng, 3))
            text, t = self.expr(depth - 1, env)
            return f"{label}[{text}]", elem(label, t)
        if kind == "concat":
            a, ta = self.expr(depth - 1, env)
            b, tb = self.expr(depth - 1, env)
            return f"({a}, {b})", seq(ta, tb)
        if kind == "if":
            a, ta = self.expr(depth - 1, env)
            b, tb = self.expr(depth - 1, env)
            return f"(if true then {a} else {b})", alt(ta, tb)
        if kind == "let":
            name = self._var()
            a, ta = self.expr(depth - 1, env)
            b, tb = self.expr(depth - 1, {**env, name: ta})
            return f"(let ${name} = {a} in {b})", tb
        if kind == "filter":
            a, ta = self.expr(depth - 1, env)
            label = rng.choice(_labels(rng, 2))
            if rng.random() < 0.5 and _atoms(ta, self.sig.defs):
                atom = rng.choice(_atoms(ta, self.sig.defs))
                if atom[0] == "L":
                    label = atom[1]
            return f"({a})::{label}", _filter(ta, label, self.sig.defs)
        if kind == "for":
            source, ts = self.expr(depth - 1, env)
            name = self._var()
            body = self._body(depth - 1, all(a[0] == "L" for a in _atoms(ts, self.sig.defs)))
            text = f"(for ${name} in {source} return {self._body_text(body, name)})"
            return text, _each_atom(ts, lambda a: self._body_type(body, a), self.sig.defs)
        doc = ref.value_text((self.sig.doc(rng, 3),))
        if kind == "call":
            return f"collect({doc})", star(elem(self.sig.l, STRING))
        return f"wrap({doc})", elem(self.sig.w, var(self.sig.name))

    # A for body is typed once per atom of the source, so it is kept as a
    # small tree and typed against each atom.
    def _body(self, depth: int, elements_only: bool):
        rng = self.rng
        kinds = ["self", "str", "empty"]
        if depth > 0:
            kinds += ["elem", "concat", "if"]
        if elements_only:
            kinds.append("child")
        kind = rng.choice(kinds)
        if kind in ("elem", "concat", "if"):
            parts = [self._body(depth - 1, elements_only)
                     for _ in range(1 if kind == "elem" else 2)]
            return (kind, rng.choice(_labels(rng, 2)), *parts)
        return (kind,)

    def _body_text(self, b, y: str) -> str:
        kind = b[0]
        if kind == "self":
            return f"${y}"
        if kind == "str":
            return '"s"'
        if kind == "empty":
            return "()"
        if kind == "child":
            return f"${y}/child"
        if kind == "elem":
            return f"{b[1]}[{self._body_text(b[2], y)}]"
        if kind == "concat":
            return f"({self._body_text(b[2], y)}, {self._body_text(b[3], y)})"
        return (f"(if true then {self._body_text(b[2], y)} "
                f"else {self._body_text(b[3], y)})")

    def _body_type(self, b, atom):
        kind = b[0]
        if kind == "self":
            return atom
        if kind == "str":
            return STRING
        if kind == "empty":
            return EMPTY
        if kind == "child":
            return atom[2]
        if kind == "elem":
            return elem(b[1], self._body_type(b[2], atom))
        pair = (self._body_type(b[2], atom), self._body_type(b[3], atom))
        return seq(*pair) if kind == "concat" else alt(*pair)


class _UpdateGen:
    """Random well-typed update statements, kept as trees so that a body
    under ``iter`` can be typed once per atom of the focus.

    Plural statements are valid on any focus.  A singular statement is a
    test ``label?(...)`` or ``*?(...)``, so its body only ever sees the
    elements the test lets through and a non-matching atom is kept."""

    def __init__(self, rng: random.Random, sig: _Sig, queries: _QueryGen):
        self.rng = rng
        self.sig = sig
        self.queries = queries

    def plural(self, depth: int):
        kinds = ["skip", "delete", "left", "right"]
        if depth > 0:
            kinds += ["seq", "if", "iter", "iter", "seq"]
        kind = self.rng.choice(kinds)
        if kind in ("left", "right"):
            return (kind, *self.queries.expr(1, {}))
        if kind in ("seq", "if"):
            return (kind, self.plural(depth - 1), self.plural(depth - 1))
        if kind == "iter":
            return ("iter", self.singular(depth - 1))
        return (kind,)

    def singular(self, depth: int):
        rng = self.rng
        kinds = ["rename", "left", "right", "delete", "skip"]
        if depth > 0:
            kinds += ["children", "children", "then"]
        kind = rng.choice(kinds)
        if kind == "children":
            body = ("children", self.plural(depth - 1))
        elif kind == "then":
            body = ("then", ("rename", rng.choice(_labels(rng, 2))),
                    self.singular(depth - 1))
        elif kind in ("left", "right"):
            body = (kind, *self.queries.expr(0, {}))
        elif kind == "rename":
            body = ("rename", rng.choice(_labels(rng, 2)))
        else:
            body = (kind,)
        return ("test", rng.choice((None, rng.choice(_labels(rng, 2)))), body)

    def text(self, s) -> str:
        kind = s[0]
        if kind == "test":
            return f"{s[1] or '*'}?({self.text(s[2])})"
        if kind in ("seq", "then"):
            return f"({self.text(s[1])}; {self.text(s[2])})"
        if kind == "if":
            return f"(if true then {self.text(s[1])} else {self.text(s[2])})"
        if kind in ("left", "right"):
            return f"{kind}[insert {s[1]}]"
        if kind in ("children", "iter"):
            return f"{kind}[{self.text(s[1])}]"
        if kind == "rename":
            return f"rename {s[1]}"
        return kind

    def synth(self, s, t):
        kind = s[0]
        if kind == "skip":
            return t
        if kind == "delete":
            return EMPTY
        if kind == "left":
            return seq(s[2], t)
        if kind == "right":
            return seq(t, s[2])
        if kind in ("seq", "then"):
            return self.synth(s[2], self.synth(s[1], t))
        if kind == "if":
            return alt(self.synth(s[1], t), self.synth(s[2], t))
        if kind == "iter":
            return _each_atom(t, lambda a: self.synth(s[1], a), self.sig.defs)
        if kind == "test":
            passes = t[0] == "L" and s[1] in (None, t[1])
            return self.synth(s[2], t) if passes else t
        if kind == "rename":
            return elem(s[1], t[2])
        assert kind == "children"
        return elem(t[1], self.synth(s[1], t[2]))


def _input_type(rng: random.Random, sig: _Sig):
    """A focus type for a generated update: the signature's trees, alone or
    beside other elements."""
    T = var(sig.name)
    k, m = _labels(rng, 2)
    return rng.choice((
        star(T),
        seq(star(T), elem(k)),
        star(alt(T, elem(k, STRING))),
        seq(elem(k, seq(star(elem(m)), alt(T, EMPTY))), star(T)),
    ))


def _query_program(rng: random.Random, index: int) -> Program:
    sig = _Sig.make(rng)
    q = _QueryGen(rng, sig)
    text, t = q.expr(rng.randint(3, 5), {})
    shown = ref.type_text(t)
    body = f"{sig.text(False)}\nquery {text} : {shown}\n"
    return Program("gen_query", f"q{index:03d}", body, type=shown)


def _update_program(rng: random.Random, index: int) -> Program:
    sig = _Sig.make(rng)
    gen = _UpdateGen(rng, sig, _QueryGen(rng, sig))
    focus = _input_type(rng, sig)
    s = gen.plural(rng.randint(3, 5))
    text = gen.text(s)
    if focus == star(var(sig.name)):
        # the leaf-overwriting procedure maps each tree of T* to a T, so
        # the focus type after it is T* again
        text = f'(iter[over("{rng.choice(_WORDS)}")]; {text})'
    shown = ref.type_text(gen.synth(s, focus))
    body = (f"{sig.text(True)}\nupdate {text} : {ref.type_text(focus)} => "
            f"{shown}\n")
    return Program("gen_update", f"u{index:03d}", body, type=shown)


# Each ill-typed variant breaks one typing rule in a program that is
# otherwise well typed; the rule id is the only diagnostic expected.
_QUERY_FAULTS = (
    ("query/ascription", None),
    ("query/if-condition", '(if "{w}" then () else ())'),
    ("query/var-unbound", "$unbound{w}"),
    ("query/call-undeclared", "missing{w}(())"),
    ("query/call-argument", 'collect("{w}")'),
    ("query/child-of-non-element", 'for $y in "{w}" return $y/child'),
)
_UPDATE_FAULTS = (
    ("update/ascription", None),
    ("update/insert-focus", "insert {w}[]"),
    ("update/rename-multiplicity", "rename {w}"),
    ("update/test-multiplicity", "{w}?skip"),
    ("update/children-multiplicity", "children[skip]"),
    ("update/iter-multiplicity", "iter[iter[skip]]"),
    ("update/call-input", 'over("{w}")'),
    ("update/if-condition", 'if "{w}" then skip else skip'),
)


def _ill_typed(rng: random.Random, index: int) -> Program:
    word = rng.choice(_WORDS)
    pick = index % (len(_QUERY_FAULTS) + len(_UPDATE_FAULTS) + 3)
    sig = _Sig.make(rng)
    q = _QueryGen(rng, sig)
    name = f"bad{index:03d}"
    if pick < len(_QUERY_FAULTS):
        rule, fault = _QUERY_FAULTS[pick]
        text, t = q.expr(3, {})
        if fault is None:
            main, shown = text, f"{word}zz[]"
        else:
            main, shown = f"({text}, {fault.format(w=word)})", "()"
        body = f"{sig.text(False)}\nquery {main} : {shown}\n"
        return Program("ill_typed", name, body, rc=1, rules=(rule,))
    pick -= len(_QUERY_FAULTS)
    if pick < len(_UPDATE_FAULTS):
        rule, fault = _UPDATE_FAULTS[pick]
        gen = _UpdateGen(rng, sig, q)
        s = gen.plural(3)
        focus = star(var(sig.name))
        if fault is None:
            main, shown = gen.text(s), f"{word}zz[]"
        else:
            main, shown = f"({fault.format(w=word)}); {gen.text(s)}", "()"
        body = (f"{sig.text(True)}\nupdate {main} : {ref.type_text(focus)} => "
                f"{shown}\n")
        return Program("ill_typed", name, body, rc=1, rules=(rule,))
    pick -= len(_UPDATE_FAULTS)
    if pick == 0:
        body = f"type {sig.name} = {word}[Missing{word}]\nquery () : ()\n"
        return Program("ill_typed", name, body, rc=1, rules=("signature/undeclared",))
    if pick == 1:
        body = f"type {sig.name} = {word}[] | {sig.name}\nquery () : ()\n"
        return Program("ill_typed", name, body, rc=1, rules=("signature/guardedness",))
    # a parse error: the CLI exits 2 and prints no report
    text, _ = q.expr(3, {})
    return Program("ill_typed", name, f"query {text}[ : ()\n", rc=2)


def _if_before_iter(rng: random.Random, n: int) -> Program:
    """n conditionals before an iteration: the focus type doubles with each
    ``if`` and ``iter`` walks the whole tree, so the cost grows as 2^n."""
    a, b = _labels(rng, 2)
    s = "; ".join(["if true then skip else skip"] * n) + f"; iter[{a}?rename {b}]"
    leaf = star(alt(elem(b), elem(b)))
    out = leaf
    for _ in range(n):
        out = alt(out, out)
    body = f"update {s} : ({a}[]|{b}[])* => {b}[]*\n"
    return Program("if_iter", f"ifit{n:02d}", body, type=ref.type_text(out), n=n)


def _wide_union(rng: random.Random, n: int) -> Program:
    """``a[c[]],d0[]`` against n same-label alternatives ``a[bi[]|c[]],di[]``:
    the subset decomposition of the subtype check visits 2^n subsets."""
    a, c, b, d = _labels(rng, 4)
    alts = [f"({a}[{b}{i}[]|{c}[]],{d}{i}[])" for i in range(n)]
    rng.shuffle(alts)
    main = f"{a}[{c}[]], {d}0[]"
    body = f"query {main} : {' | '.join(alts)}\n"
    shown = ref.type_text(seq(elem(a, elem(c)), elem(f"{d}0")))
    return Program("wide_union", f"wide{n:02d}", body, type=shown, n=n)


TYPECHECK_STRATA = ("samples", "gen_query", "gen_update", "ill_typed",
                    "if_iter", "wide_union")
SCALING_N = range(8, 14)
GENERATED = 40  # query programs, and as many update programs
ILL_TYPED = 34


def typecheck_corpus(seed: int) -> list[Program]:
    """The typecheck corpus in a seeded order.  The strata sizes and the
    family sizes n are fixed; the seed chooses names, shapes and order."""
    rng = random.Random(seed)
    out = list(SAMPLES)
    out += [_query_program(rng, i) for i in range(GENERATED)]
    out += [_update_program(rng, i) for i in range(GENERATED)]
    out += [_ill_typed(rng, i) for i in range(ILL_TYPED)]
    out += [_if_before_iter(rng, n) for n in SCALING_N]
    out += [_wide_union(rng, n) for n in SCALING_N]
    rng.shuffle(out)
    return out


# --- run corpus ------------------------------------------------------------------


@dataclass
class Document:
    """One input for a ``run`` program and the output it must produce
    (for the flat-membership strata, the membership verdict)."""

    stratum: str
    text: str
    expected: object
    size: int


def _leaf_tree(rng: random.Random):
    return ref.node("tree", ref.node("leaf", ref.text(rng.choice(_WORDS))))


def _tree_doc(rng: random.Random, budget: int, depth: int = 0):
    """A random ``Tree`` value (``tree[leaf[string] | node[Tree*]]``) of
    at most ``budget`` nodes, split near-evenly so it stays shallow."""
    if budget < 8 or depth >= 10:
        return _leaf_tree(rng)
    k = rng.randint(2, 5)
    share = (budget - 2) // k
    kids = [_tree_doc(rng, rng.randint(share * 3 // 4, share), depth + 1)
            for _ in range(k)]
    return ref.node("tree", ref.node("node", *kids))


def _count(forest) -> int:
    return sum(1 + (_count(t[2]) if t[0] == "n" else 0) for t in forest)


def _sized_tree(rng: random.Random, size: int):
    """A ``Tree`` of ``size`` nodes, give or take two: a random tree with
    leaves added under its root until it is large enough."""
    tree = _tree_doc(rng, size)
    kids = list(tree[2][0][2])
    total = _count((tree,))
    while total < size - 2:
        kids.append(_leaf_tree(rng))
        total += 3
    return ref.node("tree", ref.node("node", *kids))


# Documents per program at each size, in nodes, and flat-membership sizes,
# in trees; fixed so that every seed puts the same work in each stratum.
# The counts put the run workload's median (of 60 items) among the 800-node
# insert-after documents, which are the same for every seed, and its tail,
# the eleventh slowest item, just below the flat forests and the 3,200-node
# leafupd and leaves_x documents: at the slowest 3,200-node insert-after
# document or the fastest leaves_x one, which cost about the same.
RUN_SIZES = {400: 5, 800: 4, 1600: 2, 3200: 3}
FLAT_ALT = (10_000, 50_000)
FLAT_PAIR = ((10_000, True), (30_000, False))
RUN_STRATA = ("insert_after", "leafupd", "leaves_x", "children",
              "flat_alt", "flat_pair")


def run_corpus(seed: int) -> list[Document]:
    """Documents for each of the four programs at every size in
    ``RUN_SIZES``, and the flat-membership forests, in a seeded order."""
    rng = random.Random(seed)
    out = []
    for size in [size for size, copies in RUN_SIZES.items() for _ in range(copies)]:
        doc = (ref.node("a", *([ref.node("b")] * (size // 2)), ref.node("c")),
               ref.node("d"))
        out.append(Document("insert_after", ref.value_text(doc), ref.value_text(
            ref.insert_after(doc, "a", "b", ref.node("c"))), size))

        forest, left = [], size
        while left >= 20:
            forest.append(_sized_tree(rng, min(left, rng.randint(20, 200))))
            left -= _count(forest[-1:])
        forest = tuple(forest)
        out.append(Document("leafupd", ref.value_text(forest), ref.value_text(
            ref.overwrite_leaves(forest, "leaf", "node", "pruned")), size))

        tree = _sized_tree(rng, size)
        out.append(Document("leaves_x", ref.value_text((tree,)),
                            ref.value_text(ref.collect_leaves(tree, "leaf")), size))

        kids = [ref.node("b")] * (size // 2)
        if rng.random() < 0.5:
            kids.append(ref.node("c"))
        x = ref.node("a", *kids)
        out.append(Document("children", ref.value_text((x,)),
                            ref.value_text(x[2]), size))
    for n in FLAT_ALT:
        out.append(Document("flat_alt", ",".join(["a[]"] * n), True, n))
    for n, inside in FLAT_PAIR:
        # a b[] two thirds of the way along keeps the forest in (a[]|b[])*
        # but puts it outside (a[],a[]?)*
        trees = ["a[]"] * n
        if not inside:
            trees[2 * n // 3] = "b[]"
        out.append(Document("flat_pair", ",".join(trees), inside, n))
    rng.shuffle(out)
    return out
