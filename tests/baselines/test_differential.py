"""Differential testing: all four systems against one executable spec.

:class:`ReferenceFS` is a trivially correct in-memory namespace with
Mantle's semantics, op by op: which error class each failure raises (in
which order the checks run), the Lazy-Hybrid path permission (§5.1.1:
EXECUTE along the resolved prefix, WRITE too for an op that changes a
directory's contents) and every stat's kind, link and entry counts and
mask.  Seeded random sequences of every op in ``repro.ops`` run on
Mantle, Tectonic, InfiniFS and LocoFS and on the spec; each outcome and
the final tree must agree.
"""

import random

import pytest

from repro import errors
from repro.baselines import InfiniFSSystem
from repro.errors import MetadataError
from repro.ops import make_op
from repro.paths import is_prefix, parent_and_name, split_path
from repro.sim.stats import OpContext
from repro.types import EntryKind, Permission
from tests.baselines.conftest import SYSTEM_NAMES, build_system

_ALL = Permission.ALL
_RX = Permission.READ | Permission.EXECUTE


class ReferenceFS:
    """Dict-based model of the namespace semantics every system shares.

    Each op returns its outcome: ``("ok", value)`` or ``("error", class
    name)``.  Mutations answer ``"ok"`` alone (ids differ between
    systems), stats ``(kind, links, entries, mask)``, readdir the sorted
    names.
    """

    def __init__(self):
        self.dirs = {"/": _ALL}  # path -> its own mask
        self.objects = set()

    # -- resolution and the rule ----------------------------------------------

    def _resolve_dir(self, path):
        """The mask intersected along ``path``'s directories, itself
        included; a missing component or an object on the way is
        NoSuchPathError (an index of directories cannot tell them
        apart)."""
        mask = _ALL
        prefix = ""
        for part in split_path(path):
            prefix += "/" + part
            if prefix not in self.dirs:
                raise errors.NoSuchPathError(path, part)
            mask &= self.dirs[prefix]
        return mask

    def _parent(self, path, write=False):
        parent, _name = parent_and_name(path)
        self._rule(self._resolve_dir(parent), path, write)
        return parent

    @staticmethod
    def _rule(mask, path, write):
        needed = Permission.EXECUTE | (Permission.WRITE if write else 0)
        if mask & needed != needed:
            raise errors.PermissionDeniedError(path, needed)

    def _stat(self, path):
        if path in self.objects:
            return (EntryKind.OBJECT, 0, 0, _ALL)
        children = self._children(path)
        links = sum(1 for child in children if child in self.dirs)
        return (EntryKind.DIRECTORY, links, len(children), self.dirs[path])

    def _children(self, path):
        base = path.rstrip("/") + "/"
        return [p for p in [*self.dirs, *self.objects]
                if p != path and p.startswith(base)
                and "/" not in p[len(base):]]

    def _exists(self, path):
        return path in self.dirs or path in self.objects

    # -- ops ------------------------------------------------------------------------

    def apply(self, op, args):
        try:
            return ("ok", getattr(self, op)(*args))
        except MetadataError as exc:
            return ("error", type(exc).__name__)

    def create(self, path):
        self._parent(path, write=True)
        if self._exists(path):
            raise errors.AlreadyExistsError(path)
        self.objects.add(path)
        return "ok"

    def mkdir(self, path):
        self._parent(path, write=True)
        if self._exists(path):
            raise errors.AlreadyExistsError(path)
        self.dirs[path] = _ALL
        return "ok"

    def delete(self, path):
        self._parent(path, write=True)
        if path in self.dirs:
            raise errors.IsADirectoryError(path)
        if path not in self.objects:
            raise errors.NoSuchPathError(path)
        self.objects.remove(path)
        return "ok"

    def rmdir(self, path):
        self._parent(path, write=True)
        if path in self.objects:
            raise errors.NotADirectoryError(path)
        if path not in self.dirs:
            raise errors.NoSuchPathError(path)
        if self._children(path):
            raise errors.NotEmptyError(path)
        del self.dirs[path]
        return "ok"

    def objstat(self, path):
        self._parent(path)
        if not self._exists(path):
            raise errors.NoSuchPathError(path)
        return self._stat(path)

    def dirstat(self, path):
        self._rule(self._resolve_dir(path), path, False)
        return self._stat(path)

    def readdir(self, path):
        self._rule(self._resolve_dir(path), path, False)
        return sorted(p.rsplit("/", 1)[1] for p in self._children(path))

    def setattr(self, path, mask):
        """Gated on traversing the parent only, like chmod by the owner."""
        self._parent(path)
        if path not in self.dirs:
            raise errors.NoSuchPathError(path)
        self.dirs[path] = mask
        return self._stat(path)

    def dirrename(self, src, dst):
        self._parent(src, write=True)
        self._parent(dst, write=True)
        if is_prefix(src, dst):
            raise errors.RenameLoopError(src, dst)
        if src not in self.dirs:
            raise errors.NoSuchPathError(src)
        if self._exists(dst):
            raise errors.AlreadyExistsError(dst)
        moved = {p: m for p, m in self.dirs.items() if is_prefix(src, p)}
        objs = {p for p in self.objects if is_prefix(src, p)}
        for p in moved:
            del self.dirs[p]
        self.objects -= objs
        for p, mask in moved.items():
            self.dirs[dst + p[len(src):]] = mask
        self.objects |= {dst + p[len(src):] for p in objs}
        return "ok"


#: Masks a random setattr picks: back to ALL, no WRITE, no EXECUTE.
MASKS = [_ALL, _ALL, _RX, Permission.READ, Permission.WRITE | Permission.EXECUTE]

OPS = ["mkdir", "create", "delete", "rmdir", "dirrename", "objstat",
       "dirstat", "readdir", "setattr"]
WEIGHTS = [4, 4, 2, 2, 3, 2, 2, 1, 2]
NAMES = ["a", "b", "c"]


def generate_ops(seed, count=18, root=""):
    """Seeded random op sequence under ``root``.

    Three picks in four aim where the op can succeed in the spec's state
    as the sequence goes: a new name under an existing directory for
    mkdir/create, an existing object or directory for the op that takes
    one, an existing directory renamed under another (its id then stays
    behind at the old path).  The rest pick any path three levels deep,
    so every error path stays reachable.
    """
    rng = random.Random(seed)
    ref = ReferenceFS()
    ref.dirs[root or "/"] = _ALL
    universe = [root + "/" + "/".join(combo)
                for depth in (1, 2, 3)
                for combo in _combos(NAMES, depth)]

    def pick(pool):
        pool = sorted(pool)
        if pool and rng.random() < 0.75:
            return rng.choice(pool)
        return rng.choice(universe)

    def fresh():
        return [d.rstrip("/") + "/" + n for d in ref.dirs
                if d.startswith(root) and d.count("/") - root.count("/") < 3
                for n in NAMES]

    dirs = lambda: [d for d in ref.dirs if d.startswith(root + "/")]
    ops = []
    for _ in range(count):
        kind = rng.choices(OPS, WEIGHTS)[0]
        if kind in ("mkdir", "create"):
            args = (pick(fresh()),)
        elif kind == "delete":
            args = (pick(ref.objects),)
        elif kind == "objstat":
            args = (pick([*ref.objects, *dirs()]),)
        elif kind == "dirrename":
            args = (pick(dirs()), pick(fresh()))
        elif kind == "setattr":
            args = (pick(dirs()), rng.choice(MASKS))
        else:
            args = (pick(dirs()),)
        ref.apply(kind, args)
        ops.append((kind, args))
    return ops


def _combos(names, depth):
    if depth == 1:
        return [(n,) for n in names]
    return [(n,) + rest for n in names for rest in _combos(names, depth - 1)]


def _reduced(op, value):
    if op in ("objstat", "dirstat", "setattr"):
        return ("ok", (value.kind, value.link_count, value.entry_count,
                       value.permission))
    if op == "readdir":
        return ("ok", sorted(value))
    return ("ok", "ok")


def outcomes(system, steps):
    """Each ``(op, args)`` of ``steps`` run in turn on ``system``, in one
    simulated process, reduced to what the spec answers."""
    def run():
        got = []
        for op, args in steps:
            try:
                value = yield from system.perform(make_op(op, *args),
                                                  ctx=OpContext(op))
            except MetadataError as exc:
                got.append(("error", type(exc).__name__))
            else:
                got.append(_reduced(op, value))
        return got
    return system.sim.run_process(run())


def disagreements(system, ref, ops):
    """Every op whose outcome differs from the spec's, then every
    directory the spec ends with whose listing or stat differs."""
    want = [ref.apply(op, args) for op, args in ops]
    final = [(op, (directory,)) for directory in sorted(ref.dirs)
             if directory != "/"  # shared by every sequence
             for op in ("readdir", "dirstat")]
    want += [ref.apply(op, args) for op, args in final]
    steps = ops + final
    return [(i, *step, w, g) for i, (step, w, g)
            in enumerate(zip(steps, want, outcomes(system, steps))) if w != g]


#: Seeded sequences in all: ``seed`` 1, 2 and 3 each run every third one
#: from ``seed`` on, each in a directory of its own on one deployment (a
#: fresh deployment per sequence costs more than its ops).
SEQUENCES = 201


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_system_agrees_with_reference(name, seed):
    system = build_system(name)
    try:
        found = []
        for sequence in range(seed, SEQUENCES + 1, 3):
            root = f"/s{sequence}"
            system.bulk_mkdir(root)
            ref = ReferenceFS()
            ref.dirs[root] = _ALL
            ops = generate_ops(sequence, root=root)
            found += [(sequence, *d)
                      for d in disagreements(system, ref, ops)]
        assert not found, found[:5]
    finally:
        system.shutdown()


def _build(name):
    if name == "infinifs-amcache":
        return InfiniFSSystem(num_db_servers=2, num_db_shards=4,
                              num_proxies=2, db_cores=8, proxy_cores=8,
                              am_cache_capacity=64)
    return build_system(name)


SETUP = [("mkdir", ("/t",)), ("mkdir", ("/t/d",)), ("mkdir", ("/t/d/e",)),
         ("create", ("/t/d/o",)), ("mkdir", ("/t/x",)),
         ("objstat", ("/t/d/o",)), ("dirstat", ("/t/d/e",))]
#: Denied once ``/t/d`` is READ|EXECUTE: every op that changes its contents.
NO_WRITE = [("create", ("/t/d/new",)), ("mkdir", ("/t/d/new",)),
            ("delete", ("/t/d/o",)), ("rmdir", ("/t/d/e",)),
            ("dirrename", ("/t/d/e", "/t/d/f")),
            ("dirrename", ("/t/d/e", "/t/x/e")),
            ("dirrename", ("/t/x", "/t/d/x"))]
#: Still allowed then: reading needs no WRITE.
READS = [("objstat", ("/t/d/o",)), ("dirstat", ("/t/d",)),
         ("readdir", ("/t/d",)), ("dirstat", ("/t/d/e",))]
#: Denied once ``/t`` is READ: nothing below it can be traversed.
NO_EXECUTE = [("objstat", ("/t/d/o",)), ("objstat", ("/t/d",)),
              ("dirstat", ("/t/d",)), ("dirstat", ("/t",)),
              ("readdir", ("/t/d",)), ("setattr", ("/t/d", _ALL))]
MATRIX = [*SETUP, ("setattr", ("/t/d", _RX)), *NO_WRITE, *READS,
          ("setattr", ("/t/d", _ALL)), ("setattr", ("/t", Permission.READ)),
          *NO_EXECUTE, ("setattr", ("/t", _ALL)), *NO_WRITE[:2], *READS]
DENIED = ("error", "PermissionDeniedError")


@pytest.mark.parametrize("name", [*SYSTEM_NAMES, "infinifs-amcache"])
def test_permission_matrix(name):
    """After ``setattr /t/d READ|EXECUTE`` create, mkdir, delete, rmdir and
    dirrename under ``/t/d`` are denied; after ``setattr /t READ`` so are
    objstat, dirstat, readdir and setattr below ``/t``, and resetting
    ``/t`` allows them again (the AM-Cache variant holds cached masks)."""
    ref = ReferenceFS()
    want = [ref.apply(op, args) for op, args in MATRIX]
    system = _build(name)
    try:
        got = outcomes(system, MATRIX)
    finally:
        system.shutdown()
    assert [(step, g) for step, g, w in zip(MATRIX, got, want) if g != w] \
        == []
    denied = [step for step, w in zip(MATRIX, want) if w == DENIED]
    assert denied == NO_WRITE + NO_EXECUTE


def test_reference_model_sanity():
    ref = ReferenceFS()
    ok = ("ok", "ok")
    assert ref.apply("mkdir", ("/a",)) == ok
    assert ref.apply("mkdir", ("/a",)) == ("error", "AlreadyExistsError")
    assert ref.apply("create", ("/a/o",)) == ok
    assert ref.apply("rmdir", ("/a",)) == ("error", "NotEmptyError")
    assert ref.apply("dirrename", ("/a", "/b")) == ok
    assert ref.apply("objstat", ("/b/o",)) == \
        ("ok", (EntryKind.OBJECT, 0, 0, _ALL))
    assert ref.apply("readdir", ("/b",)) == ("ok", ["o"])
    assert ref.apply("dirrename", ("/b", "/b/c")) == \
        ("error", "RenameLoopError")
    assert ref.apply("dirstat", ("/b/o",)) == ("error", "NoSuchPathError")
    assert ref.apply("rmdir", ("/b/o",)) == ("error", "NotADirectoryError")
    assert ref.apply("delete", ("/b/o",)) == ok
    assert ref.apply("setattr", ("/b", Permission.READ)) == \
        ("ok", (EntryKind.DIRECTORY, 0, 0, Permission.READ))
    assert ref.apply("readdir", ("/b",)) == \
        ("error", "PermissionDeniedError")
    assert ref.apply("rmdir", ("/b",)) == ok
    assert ref.apply("dirstat", ("/",)) == \
        ("ok", (EntryKind.DIRECTORY, 0, 0, _ALL))
