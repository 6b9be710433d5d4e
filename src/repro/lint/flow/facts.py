"""Per-file flow facts: the cacheable syntactic summary of one module.

One AST pass per file produces a :class:`ModuleFacts` — everything the
whole-program passes need to know about the file, with **no** reference
to any other file (that is what makes the summary cacheable by content
hash alone):

* every function/method with its parameters, its taint *sources*
  (wall-clock reads, global ``random`` draws, ``os.environ``, ``id()``
  and ``hash()`` calls, unordered set iteration), its *effects* (file
  and socket I/O, ``logging``, lock acquisition, per-op allocation,
  blocking sleeps/subprocess), and its *call sites*;
* per call site, the name-level dependence set of each argument, and
  per function the dependence set of its return/yield values — encoded
  as origin tokens ``p:<i>`` (parameter i), ``s:<j>`` (source j) and
  ``c:<k>`` (call k), so the interprocedural passes can propagate taint
  through calls and returns without reopening the AST;
* every class with its base names, dataclass fields and the inferred
  types of its ``self.<attr>`` attributes (from ``self.x = Cls(...)``
  assignments and annotations), which is what lets the call-graph layer
  resolve ``self.ftl.write(...)`` through the class hierarchy.

The dependence analysis is deliberately name-level and flow-insensitive
(union over all assignments, no kill): it over-approximates, which for
a linter is the safe direction, and it keeps the summary small, stable
and JSON-serialisable.  Cross-method attribute flows (``self.x``
written in one method, read in another) are not tracked — a documented
coarseness, not an accident.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..imports import alias_map, dotted_name, resolve_name

__all__ = [
    "CallFact",
    "ClassFacts",
    "EffectFact",
    "FunctionFacts",
    "FACTS_VERSION",
    "ModuleFacts",
    "SourceFact",
    "extract_module_facts",
]

#: Bump whenever the extraction semantics or the JSON shape change, so
#: stale on-disk facts can never be mistaken for current ones.
FACTS_VERSION = "repro-lint-flow/1"

# ---------------------------------------------------------------------------
# source / effect tables
# ---------------------------------------------------------------------------

#: Absolute dotted callables whose *return value* is nondeterministic.
#: Keys map to the source kind reported in findings.
SOURCE_CALLS: Dict[str, str] = {
    # wall clock (det.wallclock bans exactly these outside repro.perf;
    # here there is no module allowlist: a wall-clock read is fine in
    # repro.perf until it flows into a digest)
    "time.time": "wallclock", "time.time_ns": "wallclock",
    "time.perf_counter": "wallclock", "time.perf_counter_ns": "wallclock",
    "time.monotonic": "wallclock", "time.monotonic_ns": "wallclock",
    "time.process_time": "wallclock", "time.process_time_ns": "wallclock",
    "time.clock_gettime": "wallclock", "time.clock_gettime_ns": "wallclock",
    "datetime.datetime.now": "wallclock",
    "datetime.datetime.utcnow": "wallclock",
    "datetime.datetime.today": "wallclock",
    "datetime.date.today": "wallclock",
    # environment
    "os.getenv": "environ", "os.environ.get": "environ",
    # per-process identities
    "id": "id",
    "hash": "hash",
    "os.getpid": "pid",
    "uuid.uuid4": "uuid", "uuid.uuid1": "uuid",
}

#: ``random.<attr>`` calls that draw from the process-global state.
#: (``random.Random`` constructs a private seeded stream — not a source.)
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

#: Blocking / effectful absolute callables → effect kind.
EFFECT_CALLS: Dict[str, str] = {
    "open": "io", "io.open": "io",
    "os.open": "io", "os.replace": "io", "os.rename": "io",
    "os.remove": "io", "os.unlink": "io", "os.makedirs": "io",
    "os.mkdir": "io", "os.fsync": "io", "os.fdopen": "io",
    "print": "print",
    "time.sleep": "sleep",
    "subprocess.run": "subprocess", "subprocess.call": "subprocess",
    "subprocess.check_call": "subprocess",
    "subprocess.check_output": "subprocess",
    "subprocess.Popen": "subprocess",
    "threading.Lock": "lock", "threading.RLock": "lock",
    "threading.Semaphore": "lock", "threading.BoundedSemaphore": "lock",
    "threading.Condition": "lock",
    "socket.socket": "socket", "socket.create_connection": "socket",
}

#: Effect-call prefixes (module families flagged wholesale).
_EFFECT_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("logging.", "logging"),
    ("socket.", "socket"),
)

#: Builtins whose call with at least one argument materialises a new
#: container proportional to its input — the per-op allocation check.
_ALLOC_CALLS = frozenset({"list", "dict", "set", "frozenset", "sorted", "tuple"})


# ---------------------------------------------------------------------------
# fact records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceFact:
    """One nondeterminism source read inside a function."""

    kind: str    # wallclock | random | environ | id | hash | set-order | ...
    name: str    # the dotted callable / expression, for messages
    line: int
    col: int = 0


@dataclass(frozen=True)
class EffectFact:
    """One effectful operation inside a function."""

    kind: str    # io | socket | logging | lock | alloc | print | sleep | subprocess
    name: str
    line: int
    col: int = 0


@dataclass(frozen=True)
class CallFact:
    """One call site, with name-level argument dependences.

    ``kind`` describes how the callee was written, which is what the
    resolution layer dispatches on:

    - ``local``: bare name defined (or resolvable) in this module;
    - ``abs``: absolute dotted name resolved through the import table;
    - ``self``: ``self.m(...)`` — method on the enclosing class;
    - ``selfattr``: ``self.<attr>.m(...)`` — method on the inferred
      type of a ``self`` attribute;
    - ``typed``: ``x.m(...)`` where ``x`` has an inferred class type;
    - ``dyn``: method call on an untyped receiver (resolved only for
      the known protocol surfaces).
    """

    kind: str
    name: str                      # dotted name / attr path, per kind
    attr: str                      # method name ('' for local/abs)
    line: int
    col: int
    args: Tuple[Tuple[str, ...], ...] = ()   # per-positional-arg origins
    kwargs: Tuple[str, ...] = ()             # union over keyword args


@dataclass(frozen=True)
class FunctionFacts:
    """The flow summary of one function or method."""

    qualname: str                  # module-relative dotted name
    params: Tuple[str, ...]
    line: int
    is_async: bool = False
    cls: Optional[str] = None      # enclosing class simple name
    sources: Tuple[SourceFact, ...] = ()
    effects: Tuple[EffectFact, ...] = ()
    calls: Tuple[CallFact, ...] = ()
    ret: Tuple[str, ...] = ()      # origins of return/yield values


@dataclass(frozen=True)
class ClassFacts:
    """The flow summary of one class definition."""

    name: str
    line: int
    bases: Tuple[str, ...] = ()            # as written, alias-resolved
    methods: Tuple[str, ...] = ()
    attr_types: Tuple[Tuple[str, str], ...] = ()   # (attr, class name)
    is_dataclass: bool = False
    fields: Tuple[Tuple[str, str, int], ...] = ()  # (name, annotation, line)


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the whole-program passes need from one file."""

    module: str
    path: str
    functions: Tuple[FunctionFacts, ...] = ()
    classes: Tuple[ClassFacts, ...] = ()

    # -- JSON round trip (the cache format) ----------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"version": FACTS_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "ModuleFacts":
        if obj.get("version") != FACTS_VERSION:
            raise ValueError(
                f"facts version {obj.get('version')!r} != {FACTS_VERSION}"
            )
        return cls(
            module=obj["module"],
            path=obj["path"],
            functions=tuple(
                FunctionFacts(
                    qualname=f["qualname"],
                    params=tuple(f["params"]),
                    line=f["line"],
                    is_async=f["is_async"],
                    cls=f["cls"],
                    sources=tuple(SourceFact(**s) for s in f["sources"]),
                    effects=tuple(EffectFact(**e) for e in f["effects"]),
                    calls=tuple(
                        CallFact(
                            kind=c["kind"], name=c["name"], attr=c["attr"],
                            line=c["line"], col=c["col"],
                            args=tuple(tuple(a) for a in c["args"]),
                            kwargs=tuple(c["kwargs"]),
                        )
                        for c in f["calls"]
                    ),
                    ret=tuple(f["ret"]),
                )
                for f in obj["functions"]
            ),
            classes=tuple(
                ClassFacts(
                    name=c["name"],
                    line=c["line"],
                    bases=tuple(c["bases"]),
                    methods=tuple(c["methods"]),
                    attr_types=tuple(
                        (a, t) for a, t in c["attr_types"]
                    ),
                    is_dataclass=c["is_dataclass"],
                    fields=tuple(
                        (n, a, ln) for n, a, ln in c["fields"]
                    ),
                )
                for c in obj["classes"]
            ),
        )


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------


def _annotation_class(node: Optional[ast.expr]) -> Optional[str]:
    """The receiver-relevant class name of an annotation, if any.

    ``Foo`` / ``"Foo"`` / ``mod.Foo`` / ``Optional[Foo]`` → ``Foo``;
    containers (``List[Foo]``) and unions of several classes → ``None``
    (their elements are not this variable's method receiver type).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return _annotation_class(node)
    if isinstance(node, ast.Name):
        return node.id if node.id[:1].isupper() else None
    if isinstance(node, ast.Attribute):
        return node.attr if node.attr[:1].isupper() else None
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else None
        )
        if head_name == "Optional":
            return _annotation_class(node.slice)
    return None


# ---------------------------------------------------------------------------
# per-function extraction
# ---------------------------------------------------------------------------


class _FunctionExtractor:
    """Single-function fact extraction (body only, nested defs excluded)."""

    def __init__(
        self,
        fn: ast.AST,
        qualname: str,
        cls: Optional[str],
        aliases: Dict[str, str],
    ) -> None:
        self.fn = fn
        self.qualname = qualname
        self.cls = cls
        self.aliases = aliases
        self.sources: List[SourceFact] = []
        self.effects: List[EffectFact] = []
        self.calls: List[CallFact] = []
        self._call_args: List[Tuple[List[Tuple[Set[str], Set[str]]],
                                    Tuple[Set[str], Set[str]]]] = []
        self._edges: List[Tuple[str, Set[str], Set[str]]] = []
        self._ret: Tuple[Set[str], Set[str]] = (set(), set())
        self.params: Tuple[str, ...] = ()
        self._var_types: Dict[str, str] = {}
        self._set_names: Set[str] = set()
        self.self_attr_types: Dict[str, str] = {}

    # -- public --------------------------------------------------------

    def extract(self) -> FunctionFacts:
        args = self.fn.args
        names: List[str] = []
        for a in (
            list(args.posonlyargs) + list(args.args)
        ):
            names.append(a.arg)
            hint = _annotation_class(a.annotation)
            if hint:
                self._var_types[a.arg] = hint
        if args.vararg:
            names.append(args.vararg.arg)
        for a in args.kwonlyargs:
            names.append(a.arg)
            hint = _annotation_class(a.annotation)
            if hint:
                self._var_types[a.arg] = hint
        if args.kwarg:
            names.append(args.kwarg.arg)
        self.params = tuple(names)
        if self.cls is not None and names:
            self._var_types.setdefault(names[0], self.cls)

        self._prescan_types()
        for stmt in self.fn.body:
            self._visit_stmt(stmt)
        name_origins = self._close_names()

        def resolve(pair: Tuple[Set[str], Set[str]]) -> Tuple[str, ...]:
            origins, names_ = pair
            out = set(origins)
            for n in names_:
                out |= name_origins.get(n, set())
            return tuple(sorted(out))

        calls = []
        for fact, (arg_pairs, kw_pair) in zip(self.calls, self._call_args):
            calls.append(CallFact(
                kind=fact.kind, name=fact.name, attr=fact.attr,
                line=fact.line, col=fact.col,
                args=tuple(resolve(p) for p in arg_pairs),
                kwargs=resolve(kw_pair),
            ))
        return FunctionFacts(
            qualname=self.qualname,
            params=self.params,
            line=self.fn.lineno,
            is_async=isinstance(self.fn, ast.AsyncFunctionDef),
            cls=self.cls,
            sources=tuple(self.sources),
            effects=tuple(self.effects),
            calls=tuple(calls),
            ret=resolve(self._ret),
        )

    # -- pre-scan: local variable types and set-bound names ------------

    def _prescan_types(self) -> None:
        for node in self._walk_body():
            if isinstance(node, ast.AnnAssign):
                hint = _annotation_class(node.annotation)
                target = node.target
                if hint and isinstance(target, ast.Name):
                    self._var_types[target.id] = hint
                if hint and self._is_self_attr(target):
                    self.self_attr_types[target.attr] = hint
            elif isinstance(node, ast.Assign):
                cls = self._constructed_class(node.value)
                is_set = _is_set_expr(node.value, self._set_names)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if cls:
                            self._var_types[target.id] = cls
                        if is_set:
                            self._set_names.add(target.id)
                        else:
                            self._set_names.discard(target.id)
                    elif cls and self._is_self_attr(target):
                        self.self_attr_types[target.attr] = cls

    def _constructed_class(self, value: ast.expr) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        name = dotted_name(value.func)
        if name is None:
            return None
        tail = self.aliases.get(name, name).rsplit(".", 1)[-1]
        return tail if tail[:1].isupper() else None

    @staticmethod
    def _is_self_attr(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _walk_body(self):
        stack = list(self.fn.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    # -- statement walk ------------------------------------------------

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested definitions are extracted as their own facts
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = stmt.value
            if value is None:
                return
            deps = self._deps(value)
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                for name in _target_names(target):
                    self._edges.append((name, set(deps[0]), set(deps[1])))
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                deps = self._deps(stmt.value)
                self._ret[0].update(deps[0])
                self._ret[1].update(deps[1])
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            deps = self._deps(stmt.iter)
            origins = set(deps[0])
            if _is_set_expr(stmt.iter, self._set_names):
                origins.add(self._add_source(
                    "set-order", "iteration over an unordered set",
                    stmt.iter,
                ))
            for name in _target_names(stmt.target):
                self._edges.append((name, origins, set(deps[1])))
            for child in stmt.body + stmt.orelse:
                self._visit_stmt(child)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                deps = self._deps(item.context_expr)
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        self._edges.append((name, set(deps[0]), set(deps[1])))
            for child in stmt.body:
                self._visit_stmt(child)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._deps(stmt.test)
            for child in stmt.body + stmt.orelse:
                self._visit_stmt(child)
            return
        if isinstance(stmt, ast.Try):
            for child in (
                stmt.body + stmt.orelse + stmt.finalbody
                + [s for h in stmt.handlers for s in h.body]
            ):
                self._visit_stmt(child)
            return
        if isinstance(stmt, ast.Expr):
            deps = self._deps(stmt.value)
            if isinstance(stmt.value, (ast.Yield, ast.YieldFrom, ast.Await)):
                pass  # already folded into _ret by _deps
            return
        if isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._deps(child)
            return
        # anything else: visit expression children for call collection
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._deps(child)
            elif isinstance(child, ast.stmt):
                self._visit_stmt(child)

    # -- expression dependences ----------------------------------------

    def _deps(self, node: ast.expr) -> Tuple[Set[str], Set[str]]:
        """(origin tokens, referenced names) of an expression.

        Side effects: records sources, effects and call sites found in
        the expression (each exactly once — the walk owns the node).
        """
        origins: Set[str] = set()
        names: Set[str] = set()
        self._collect(node, origins, names)
        return origins, names

    def _collect(
        self, node: ast.expr, origins: Set[str], names: Set[str]
    ) -> None:
        if isinstance(node, ast.Name):
            names.add(node.id)
            if node.id in self.params:
                origins.add(f"p:{self.params.index(node.id)}")
            return
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                full = resolve_name(dotted, self.aliases)
                if full == "os.environ" or full.startswith("os.environ."):
                    origins.add(self._add_source("environ", full, node))
                    return
                names.add(dotted)
                root = dotted.split(".", 1)[0]
                names.add(root)
                if root in self.params:
                    origins.add(f"p:{self.params.index(root)}")
                return
            self._collect(node.value, origins, names)
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                deps = self._deps(node.value)
                self._ret[0].update(deps[0])
                self._ret[1].update(deps[1])
                origins.update(deps[0])
                names.update(deps[1])
            return
        if isinstance(node, ast.Call):
            origins_or_token = self._collect_call(node)
            origins.update(origins_or_token)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            if not isinstance(node, ast.GeneratorExp):
                self.effects.append(EffectFact(
                    kind="alloc",
                    name=type(node).__name__,
                    line=node.lineno, col=node.col_offset + 1,
                ))
            for gen in node.generators:
                deps = self._deps(gen.iter)
                origins.update(deps[0])
                names.update(deps[1])
                if _is_set_expr(gen.iter, self._set_names):
                    origins.add(self._add_source(
                        "set-order", "iteration over an unordered set",
                        gen.iter,
                    ))
                for cond in gen.ifs:
                    self._collect(cond, origins, names)
            for part in ("elt", "key", "value"):
                sub = getattr(node, part, None)
                if sub is not None:
                    self._collect(sub, origins, names)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._collect(child, origins, names)

    # -- call classification -------------------------------------------

    def _collect_call(self, node: ast.Call) -> Set[str]:
        """Record one call site; returns the origin tokens of its value."""
        arg_pairs: List[Tuple[Set[str], Set[str]]] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                arg = arg.value
            arg_pairs.append(self._deps(arg))
        kw_origins: Set[str] = set()
        kw_names: Set[str] = set()
        for kw in node.keywords:
            deps = self._deps(kw.value)
            kw_origins.update(deps[0])
            kw_names.update(deps[1])

        dotted = dotted_name(node.func)
        resolved = (
            None if dotted is None else resolve_name(dotted, self.aliases)
        )

        # sources -------------------------------------------------------
        if resolved is not None:
            kind = SOURCE_CALLS.get(resolved)
            if kind is None and resolved.startswith("random."):
                attr = resolved.split(".", 1)[1]
                if attr not in _RANDOM_ALLOWED and "." not in attr:
                    kind = "random"
            if kind is not None:
                return {self._add_source(kind, resolved, node)}

        # effects -------------------------------------------------------
        if resolved is not None:
            ekind = EFFECT_CALLS.get(resolved)
            if ekind is None:
                for prefix, pk in _EFFECT_PREFIXES:
                    if resolved.startswith(prefix):
                        ekind = pk
                        break
            if ekind is None and resolved in _ALLOC_CALLS and (
                node.args or node.keywords
            ):
                ekind = "alloc"
            if ekind is not None:
                self.effects.append(EffectFact(
                    kind=ekind, name=resolved,
                    line=node.lineno, col=node.col_offset + 1,
                ))
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            self.effects.append(EffectFact(
                kind="lock", name=dotted_name(node.func) or ".acquire",
                line=node.lineno, col=node.col_offset + 1,
            ))

        # set-order via materialisers ----------------------------------
        if resolved in ("list", "tuple") and node.args and _is_set_expr(
            node.args[0], self._set_names
        ):
            token = self._add_source(
                "set-order", f"{resolved}() over an unordered set", node
            )
            index = len(self.calls)
            fact = self._classify_call(node, dotted, resolved)
            self.calls.append(fact)
            self._call_args.append((arg_pairs, (kw_origins, kw_names)))
            return {token, f"c:{index}"}

        # the call itself ----------------------------------------------
        index = len(self.calls)
        fact = self._classify_call(node, dotted, resolved)
        self.calls.append(fact)
        self._call_args.append((arg_pairs, (kw_origins, kw_names)))
        return {f"c:{index}"}

    def _classify_call(
        self,
        node: ast.Call,
        dotted: Optional[str],
        resolved: Optional[str],
    ) -> CallFact:
        line, col = node.lineno, node.col_offset + 1
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            target = self.aliases.get(name)
            if target is not None:
                return CallFact(kind="abs", name=target, attr="",
                                line=line, col=col)
            return CallFact(kind="local", name=name, attr="",
                            line=line, col=col)
        if isinstance(func, ast.Attribute):
            attr = func.attr
            recv = func.value
            recv_dotted = dotted_name(recv)
            if recv_dotted == "self":
                return CallFact(kind="self", name="", attr=attr,
                                line=line, col=col)
            if (
                recv_dotted is not None
                and recv_dotted.startswith("self.")
                and recv_dotted.count(".") == 1
            ):
                return CallFact(
                    kind="selfattr", name=recv_dotted.split(".", 1)[1],
                    attr=attr, line=line, col=col,
                )
            if recv_dotted is not None and "." not in recv_dotted:
                hint = self._var_types.get(recv_dotted)
                if hint is not None:
                    return CallFact(kind="typed", name=hint, attr=attr,
                                    line=line, col=col)
            if resolved is not None and (
                resolved != dotted or "." in (recv_dotted or "")
            ):
                # looks like module.attr through an import alias
                head = (recv_dotted or "").split(".", 1)[0]
                if head in self.aliases:
                    return CallFact(kind="abs", name=resolved, attr="",
                                    line=line, col=col)
            if recv_dotted is not None and recv_dotted[:1].isupper():
                # ClassName.method(...) — unbound call through the class
                return CallFact(kind="typed", name=recv_dotted, attr=attr,
                                line=line, col=col)
            return CallFact(kind="dyn", name=recv_dotted or "", attr=attr,
                            line=line, col=col)
        # call on a computed expression — opaque
        return CallFact(kind="dyn", name="", attr="", line=line, col=col)

    # -- helpers -------------------------------------------------------

    def _add_source(self, kind: str, name: str, node: ast.AST) -> str:
        token = f"s:{len(self.sources)}"
        self.sources.append(SourceFact(
            kind=kind, name=name,
            line=getattr(node, "lineno", self.fn.lineno),
            col=getattr(node, "col_offset", 0) + 1,
        ))
        return token

    def _close_names(self) -> Dict[str, Set[str]]:
        """Transitive closure of name → origin tokens over the edges."""
        name_origins: Dict[str, Set[str]] = {}
        for i, name in enumerate(self.params):
            name_origins.setdefault(name, set()).add(f"p:{i}")
        # union-only system: iterate to a fixed point (small functions,
        # few passes; cap guards pathological inputs)
        for _ in range(min(len(self._edges) + 2, 32)):
            changed = False
            for target, origins, names in self._edges:
                bucket = name_origins.setdefault(target, set())
                before = len(bucket)
                bucket.update(origins)
                for n in names:
                    bucket.update(name_origins.get(n, ()))
                if len(bucket) != before:
                    changed = True
            if not changed:
                break
        return name_origins


def _target_names(target: ast.expr) -> List[str]:
    """Assignable name tokens of a target (tuple targets flattened)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for element in target.elts:
            out.extend(_target_names(element))
        return out
    if isinstance(target, ast.Attribute):
        dotted = dotted_name(target)
        if dotted is not None:
            return [dotted, dotted.split(".", 1)[0]]
        return []
    if isinstance(target, (ast.Subscript, ast.Starred)):
        return _target_names(target.value)
    return []


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    """Syntactically a set literal/comprehension/constructor or a name
    last bound to one in this function."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


# ---------------------------------------------------------------------------
# module extraction
# ---------------------------------------------------------------------------


def _is_dataclass_def(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return True
    return False


def extract_module_facts(
    module: str,
    path: str,
    tree: ast.Module,
    is_package: Optional[bool] = None,
    aliases: Optional[Dict[str, str]] = None,
) -> ModuleFacts:
    """One-pass fact extraction for a parsed module.

    ``aliases`` is the module's import table when the caller already
    has it (:attr:`repro.lint.engine.ModuleInfo.aliases`).
    """
    if is_package is None:
        is_package = path.endswith("__init__.py")
    if aliases is None:
        aliases = alias_map(tree, module, is_package)
    functions: List[FunctionFacts] = []
    classes: List[ClassFacts] = []
    class_attr_types: Dict[str, Dict[str, str]] = {}

    def walk(body: Sequence[ast.stmt], prefix: str, cls: Optional[str]):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{node.name}" if prefix else node.name
                extractor = _FunctionExtractor(node, qual, cls, aliases)
                functions.append(extractor.extract())
                if cls is not None and extractor.self_attr_types:
                    class_attr_types.setdefault(cls, {}).update(
                        extractor.self_attr_types
                    )
                walk(node.body, qual, None)
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}.{node.name}" if prefix else node.name
                bases = []
                for base in node.bases:
                    name = dotted_name(base)
                    if name is not None:
                        bases.append(resolve_name(name, aliases))
                methods = [
                    child.name for child in node.body
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                ]
                fields = []
                attr_types: Dict[str, str] = {}
                for child in node.body:
                    if isinstance(child, ast.AnnAssign) and isinstance(
                        child.target, ast.Name
                    ):
                        try:
                            ann = ast.unparse(child.annotation)
                        except Exception:  # pragma: no cover - defensive
                            ann = ""
                        fields.append(
                            (child.target.id, ann, child.lineno)
                        )
                        hint = _annotation_class(child.annotation)
                        if hint:
                            attr_types[child.target.id] = hint
                class_attr_types.setdefault(node.name, {}).update(attr_types)
                walk(node.body, qual, node.name)
                classes.append(ClassFacts(
                    name=node.name,
                    line=node.lineno,
                    bases=tuple(bases),
                    methods=tuple(methods),
                    attr_types=tuple(sorted(
                        class_attr_types.get(node.name, {}).items()
                    )),
                    is_dataclass=_is_dataclass_def(node),
                    fields=tuple(fields),
                ))
            else:
                # module-level statements: nothing to extract (module
                # bodies feed no hot path and no digest directly)
                continue

    walk(tree.body, "", None)
    return ModuleFacts(
        module=module,
        path=path,
        functions=tuple(functions),
        classes=tuple(classes),
    )
