"""Reachability guard: every function in the queue layers must be reached by
the harness itself, so code that only tests call cannot grow back unseen.

One short throughput rep, one quality rep and one conservation run per queue
kind, at 1 and 2 threads, run under ``sys.setprofile`` and
``threading.setprofile``; every function defined in the queue modules must
then have been entered, apart from the reference views and hooks named in
``ALLOWED``.

A static guard (stdlib ``ast`` only) covers what a profile cannot see: every
attribute a class stores as ``self.<name> = ...`` must be loaded somewhere in
the package, and every imported name must be used, apart from the bindings
marked ``# noqa: F401`` that tracers patch.
"""
import ast
import importlib
import os
import sys
import threading

import pqbench
from pqbench.bench import (QUEUE_KINDS, BenchConfig, run_conservation,
                           run_quality_rep, run_throughput_rep)

MODULES = ("core", "dlsm", "slsm", "klsm", "multiqueue", "baseline")
STATIC_MODULES = MODULES + ("bench", "cli", "workload")
SRC = os.path.dirname(pqbench.__file__)

# reference views that tests read, and entry points that tools patch or call
ALLOWED_NAMES = {"live_items", "check", "__repr__"}
ALLOWED = {
    "Slsm.version", "Slsm.window_items",
    "LockedHeap.insert", "LockedHeap.delete_min", "SeqLsmQueue.register",
}


def defined_functions():
    """Qualified name -> code object of every function, method and property
    getter written in the queue modules."""
    out = {}
    for name in MODULES:
        mod = importlib.import_module("pqbench." + name)
        for obj in vars(mod).values():
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for m in members:
                if isinstance(m, property):
                    m = m.fget
                elif isinstance(m, (staticmethod, classmethod)):
                    m = m.__func__
                code = getattr(m, "__code__", None)
                if code is not None and code.co_filename == mod.__file__:
                    out[code.co_qualname] = code
    return out


def reached_codes():
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    old_sys, old_threading = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for queue in QUEUE_KINDS:
            for threads in (1, 2):
                if queue == "seqlsm" and threads == 2:
                    continue
                cfg = BenchConfig(queue=queue, k=16, threads=threads,
                                  prefill=400, duration_s=0.02, reps=1,
                                  seed=threads)
                run_throughput_rep(cfg, 0)
                run_quality_rep(cfg, 0)
                run_conservation(cfg, 0)
    finally:
        sys.setprofile(old_sys)
        threading.setprofile(old_threading)
    return seen


def test_allow_list_names_existing_functions():
    defined = defined_functions()
    assert ALLOWED <= set(defined)
    assert ALLOWED_NAMES <= {q.rsplit(".", 1)[-1] for q in defined}


def test_every_queue_layer_function_is_reached_by_the_harness():
    defined = defined_functions()
    seen = reached_codes()
    unreached = sorted(
        q for q, code in defined.items()
        if code not in seen and q not in ALLOWED
        and q.rsplit(".", 1)[-1] not in ALLOWED_NAMES)
    assert not unreached, f"only tests reach: {unreached}"


# ----------------------------------------------------------------------
# static guard: stored state is read, imported names are used

def _class_named(node, classes):
    """The package class an annotation or constructor call names, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in classes else None
    if isinstance(node, ast.Name):
        return node.id if node.id in classes else None
    return None


class _Types:
    """Static types of the receivers the package itself makes obvious:
    ``self``, parameters and class-body fields (dataclass fields) annotated
    with a package class or a dotted foreign class, results of module-level
    functions whose return annotation names one, attributes set from those
    or from a package constructor, and local aliases of them.  Any other
    receiver stays unknown."""

    def __init__(self, trees):
        self.classes = {n.name for t in trees.values() for n in ast.walk(t)
                        if isinstance(n, ast.ClassDef)}
        # function name -> the class its return annotation names; a name
        # two modules annotate differently stays unknown
        self.returns = {}
        for tree in trees.values():
            for fn in tree.body:
                if isinstance(fn, ast.FunctionDef):
                    t = self.annotated(fn.returns)
                    if self.returns.setdefault(fn.name, t) != t:
                        self.returns[fn.name] = None
        self.attrs = {}
        for tree in trees.values():
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    for node in cls.body:
                        if (isinstance(node, ast.AnnAssign)
                                and isinstance(node.target, ast.Name)):
                            t = self.annotated(node.annotation)
                            if t:
                                self.attrs[cls.name, node.target.id] = t
        for cls, fn in self.methods(trees):
            env = self.params(fn, cls)
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and _is_self_attr(node.targets[0])):
                    t = self.of(node.value, env)
                    if t:
                        self.attrs[cls, node.targets[0].attr] = t

    @staticmethod
    def methods(trees):
        for tree in trees.values():
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    for fn in cls.body:
                        if isinstance(fn, ast.FunctionDef):
                            yield cls.name, fn

    def params(self, fn, cls):
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        env = {a.arg: self.annotated(a.annotation) for a in args}
        if cls is not None and args and args[0].arg == "self":
            env["self"] = cls
        return env

    def annotated(self, node):
        """The package class an annotation names.  A dotted name such as
        ``argparse.Namespace`` is another module's class: loads through it
        read no package attribute, so it is a type too."""
        if isinstance(node, ast.Attribute):
            return ast.unparse(node)
        return _class_named(node, self.classes)

    def env(self, fn, cls):
        env = self.params(fn, cls)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                env[node.targets[0].id] = self.of(node.value, env)
        return env

    def of(self, expr, env):
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self.attrs.get((self.of(expr.value, env), expr.attr))
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id in self.returns:
                return self.returns[expr.func.id]
            return _class_named(expr.func, self.classes)
        return None


def _is_self_attr(node):
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")


class _Loads(ast.NodeVisitor):
    """Attribute loads as (class, name) where the receiver's class is
    known, and as bare names where it is not."""

    def __init__(self, types):
        self.types = types
        self.cls = None
        self.env = {}
        self.typed = set()
        self.untyped = set()

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node):
        outer, self.env = self.env, self.types.env(node, self.cls)
        self.generic_visit(node)
        self.env = outer

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            t = self.types.of(node.value, self.env)
            if t is None:
                self.untyped.add(node.attr)
            else:
                self.typed.add((t, node.attr))
        self.generic_visit(node)


def unread_state(trees, guarded):
    """``Class.name`` for every ``self.name`` stored in a ``guarded``
    module that no module in ``trees`` loads.  A load through an unknown
    receiver counts for every class, so only a provably unread attribute
    is reported."""
    types = _Types(trees)
    loads = _Loads(types)
    for tree in trees.values():
        loads.visit(tree)
    stored = {(cls, node.attr)
              for mod in guarded for cls, fn in types.methods({mod: trees[mod]})
              for node in ast.walk(fn)
              if _is_self_attr(node) and isinstance(node.ctx, ast.Store)}
    return sorted(f"{cls}.{name}" for cls, name in stored
                  if (cls, name) not in loads.typed
                  and name not in loads.untyped)


def unused_imports(source, tree):
    """Imported names the module never loads, outside ``# noqa: F401``."""
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                out.append(name)
    return out


def package_sources():
    out = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as f:
                out[fname[:-3]] = f.read()
    return out


def test_every_stored_attribute_is_read():
    sources = package_sources()
    trees = {m: ast.parse(s) for m, s in sources.items()}
    unread = unread_state(trees, STATIC_MODULES)
    assert not unread, f"stored but never read: {unread}"


def test_every_imported_name_is_used():
    sources = package_sources()
    unused = {m: unused_imports(sources[m], ast.parse(sources[m]))
              for m in STATIC_MODULES}
    unused = {m: names for m, names in unused.items() if names}
    assert not unused, f"imported but never used: {unused}"


GUARD_SAMPLE = """
from typing import List, Tuple
from .core import merge_sorted_live  # noqa: F401


class Table:
    def __init__(self):
        self.size = 0
        self.spare = 0


class Part:
    def __init__(self, table: Table):
        self.table = table
        self.size = 0


class Whole:
    def __init__(self):
        self.table = Table()
        self.part = Part(self.table)

    def read(self) -> List[int]:
        part = self.part
        return [self.table.size, part.size]
"""


def test_static_guard_flags_a_sample():
    """Only ``Whole`` reads a ``table``, so the copy ``Part`` stores is
    flagged although another class reads an attribute of that name."""
    tree = ast.parse(GUARD_SAMPLE)
    assert unread_state({"m": tree}, ["m"]) == ["Part.table", "Table.spare"]
    assert unused_imports(GUARD_SAMPLE, tree) == ["Tuple"]


TYPED_SAMPLE = """
import argparse
from dataclasses import dataclass


@dataclass
class Config:
    threads: int = 1


@dataclass
class Result:
    config: Config


class Pool:
    def __init__(self, cfg: Config):
        self.threads = cfg.threads
        self.size = 0


def report(result: Result, args: argparse.Namespace, other):
    cfg = result.config
    return cfg.threads, args.threads, other.size
"""


def test_static_guard_types_dataclass_fields():
    """``cfg`` comes from the annotated field ``Result.config`` and ``args``
    is an ``argparse.Namespace``, so neither ``threads`` keeps ``Pool``'s
    alive; the load through the unannotated ``other`` still keeps every
    ``size``."""
    tree = ast.parse(TYPED_SAMPLE)
    assert unread_state({"m": tree}, ["m"]) == ["Pool.threads"]


RETURNS_SAMPLE = """
class Result:
    def __init__(self):
        self.config = 0
        self.spare = 0


class Other:
    def __init__(self):
        self.spare = 0


def run() -> Result:
    return Result()


def main():
    result = run()
    return result.config, result.spare
"""


def test_static_guard_types_call_results_by_return_annotation():
    """``result`` is what ``run`` is annotated to return, so its loads keep
    ``Result``'s attributes alive and not ``Other.spare``.  When another
    module annotates a ``run`` differently, the result is unknown again and
    its loads keep every ``spare``."""
    tree = ast.parse(RETURNS_SAMPLE)
    assert unread_state({"m": tree}, ["m"]) == ["Other.spare"]
    other = ast.parse("def run() -> int:\n    return 0\n")
    assert unread_state({"m": tree, "n": other}, ["m"]) == []
