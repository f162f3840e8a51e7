"""Conformance suite: all four systems implement identical semantics.

Every scenario runs against Mantle, Tectonic, InfiniFS and LocoFS through
the shared MetadataSystem interface; only *performance* may differ between
systems, never results.
"""

import dataclasses

import pytest

from repro.ops import Op, make_op
from repro.errors import (
    AlreadyExistsError,
    IsADirectoryError,
    NoSuchPathError,
    NotEmptyError,
    RenameLoopError,
    TransactionAbort,
)
from repro.tafdb.client import MAX_RETRIES
from repro.types import Permission, StatResult
from tests.baselines.conftest import SyncDriver, build_system


class TestObjectSemantics:
    def test_create_stat_delete_roundtrip(self, driver):
        driver.system.bulk_mkdir("/data")
        obj_id = driver.run("create", "/data/a.bin")
        stat = driver.run("objstat", "/data/a.bin")
        assert stat.id == obj_id
        driver.run("delete", "/data/a.bin")
        with pytest.raises(NoSuchPathError):
            driver.run("objstat", "/data/a.bin")

    def test_duplicate_create_rejected(self, driver):
        driver.system.bulk_mkdir("/data")
        driver.run("create", "/data/a.bin")
        with pytest.raises(AlreadyExistsError):
            driver.run("create", "/data/a.bin")

    def test_create_under_missing_parent_rejected(self, driver):
        with pytest.raises(NoSuchPathError):
            driver.run("create", "/missing/a.bin")

    def test_deep_path_operations(self, driver):
        path = "/l1/l2/l3/l4/l5/l6/l7/l8"
        parts = path.strip("/").split("/")
        for i in range(1, len(parts) + 1):
            driver.system.bulk_mkdir("/" + "/".join(parts[:i]))
        driver.run("create", path + "/deep.bin")
        assert driver.run("objstat", path + "/deep.bin").id > 0


class TestDirectorySemantics:
    def test_mkdir_visible_to_stat_and_readdir(self, driver):
        driver.system.bulk_mkdir("/top")
        driver.run("mkdir", "/top/sub")
        stat = driver.run("dirstat", "/top/sub")
        assert stat.is_dir
        assert "sub" in driver.run("readdir", "/top")

    def test_mkdir_duplicate_rejected(self, driver):
        driver.system.bulk_mkdir("/top")
        driver.run("mkdir", "/top/sub")
        with pytest.raises(AlreadyExistsError):
            driver.run("mkdir", "/top/sub")

    def test_parent_entry_count_grows(self, driver):
        driver.system.bulk_mkdir("/top")
        driver.run("mkdir", "/top/sub")
        driver.run("create", "/top/obj")
        assert driver.run("dirstat", "/top").entry_count == 2

    def test_rmdir_empty_only(self, driver):
        driver.system.bulk_mkdir("/top")
        driver.run("mkdir", "/top/victim")
        driver.run("create", "/top/victim/obj")
        with pytest.raises(NotEmptyError):
            driver.run("rmdir", "/top/victim")
        driver.run("delete", "/top/victim/obj")
        driver.run("rmdir", "/top/victim")
        with pytest.raises(NoSuchPathError):
            driver.run("dirstat", "/top/victim")


class TestSetattr:
    """Only Mantle enforces a mask on later ops (a create under a
    READ|EXECUTE directory is denied there and succeeds on the baselines),
    so these check what setattr returns and what dirstat reads back."""

    MASK = Permission.READ | Permission.EXECUTE

    def test_setattr_returns_the_new_stat(self, driver):
        driver.system.bulk_mkdir("/top")
        dir_id = driver.system.bulk_mkdir("/top/d")
        stat = driver.run("setattr", "/top/d", self.MASK)
        assert isinstance(stat, StatResult)
        assert (stat.path, stat.id, stat.is_dir) == ("/top/d", dir_id, True)
        assert stat.permission == self.MASK

    def test_dirstat_sees_the_new_mask(self, driver):
        driver.system.bulk_mkdir("/top")
        driver.system.bulk_mkdir("/top/d")
        driver.run("setattr", "/top/d", self.MASK)
        assert driver.run("dirstat", "/top/d").permission == self.MASK
        assert driver.run("dirstat", "/top").permission == Permission.ALL

    @pytest.mark.parametrize("path", ["/top/ghost", "/ghost/d"])
    def test_setattr_on_missing_path_rejected(self, driver, path):
        driver.system.bulk_mkdir("/top")
        with pytest.raises(NoSuchPathError):
            driver.run("setattr", path, self.MASK)


class _Unbounded(Exception):
    """A retry loop kept going past every limit the systems use."""


class _AbortingClient:
    """A proxy's TafDB client whose transactions all abort; reads and the
    backoff schedule are the real client's."""

    def __init__(self, db):
        self._db = db
        self.attempts = 0

    def __getattr__(self, name):
        return getattr(self._db, name)

    def execute_txn(self, intents, ctx=None):
        self.attempts += 1
        if self.attempts > MAX_RETRIES + 5:
            raise _Unbounded(self.attempts)
        raise TransactionAbort("version", intents[0].key)
        yield  # a generator, like the real one


@pytest.mark.parametrize("name", ["tectonic", "infinifs"])
def test_setattr_gives_up_after_max_retries(name):
    system = build_system(name)
    system.bulk_mkdir("/d")
    stubs = [_AbortingClient(entry[1]) for entry in system.proxies]
    system.proxies = [(entry[0], stub) + tuple(entry[2:])
                      for entry, stub in zip(system.proxies, stubs)]
    with pytest.raises(TransactionAbort):
        SyncDriver(system).run("setattr", "/d", Permission.READ)
    assert sum(stub.attempts for stub in stubs) == MAX_RETRIES + 1
    system.shutdown()


class TestRenameSemantics:
    def test_rename_moves_descendants(self, driver):
        driver.system.bulk_mkdir("/src")
        driver.system.bulk_mkdir("/src/inner")
        driver.system.bulk_create("/src/inner/obj")
        driver.system.bulk_mkdir("/dst")
        driver.run("dirrename", "/src/inner", "/dst/moved")
        assert driver.run("objstat", "/dst/moved/obj").id > 0
        with pytest.raises(NoSuchPathError):
            driver.run("objstat", "/src/inner/obj")

    def test_rename_loop_rejected(self, driver):
        driver.system.bulk_mkdir("/a")
        driver.system.bulk_mkdir("/a/b")
        with pytest.raises(RenameLoopError):
            driver.run("dirrename", "/a", "/a/b/a2")

    def test_lookup_after_rename_uses_new_path(self, driver):
        """Stale-cache check: warm lookups, rename, resolve again."""
        driver.system.bulk_mkdir("/w")
        driver.system.bulk_mkdir("/w/x")
        driver.system.bulk_mkdir("/w/x/y")
        driver.system.bulk_create("/w/x/y/obj")
        driver.run("objstat", "/w/x/y/obj")  # warm caches/predictions
        driver.system.bulk_mkdir("/dst")
        driver.run("dirrename", "/w/x", "/dst/x2")
        assert driver.run("objstat", "/dst/x2/y/obj").id > 0
        with pytest.raises(NoSuchPathError):
            driver.run("objstat", "/w/x/y/obj")


class TestErrors:
    def test_delete_on_directory_rejected(self, driver):
        driver.system.bulk_mkdir("/d")
        with pytest.raises(IsADirectoryError):
            driver.run("delete", "/d")

    def test_unknown_operation_rejected(self, driver):
        with pytest.raises(ValueError):
            driver.system.sim.run_process(
                driver.system.perform(make_op("chmodx", "/")))

    def test_missing_handler_names_system_and_op(self, driver):
        @dataclasses.dataclass(frozen=True)
        class Frobnicate(Op):
            path: str
            name = "frobnicate"

        system = driver.system
        with pytest.raises(NotImplementedError,
                           match=f"{system.name} does not implement "
                                 "'frobnicate'"):
            system.sim.run_process(system.perform(Frobnicate("/")))


class TestPhaseAccounting:
    def test_objstat_has_lookup_phase(self, driver, phases_of):
        driver.system.bulk_mkdir("/p")
        driver.system.bulk_create("/p/o")
        agg = phases_of(driver.system,
                        lambda: driver.run("objstat", "/p/o"))
        assert agg.mean_latency_us > 0
        # LocoFS folds dir-op resolution into execution; all systems must
        # still account the whole operation to *some* phase.
        assert sum(agg.mean_phase_us(phase) for phase in agg.phases) > 0

    def test_rpc_rounds_counted(self, driver):
        driver.system.bulk_mkdir("/p")
        driver.system.bulk_create("/p/o")
        driver.run("objstat", "/p/o")
        assert driver.contexts[-1].rpcs >= 1


class TestDataAccessMode:
    def test_data_access_adds_latency(self, driver):
        driver.system.bulk_mkdir("/p")
        driver.system.bulk_create("/p/o")
        driver.run("objstat", "/p/o")
        without = driver.contexts[-1].latency
        driver.system.data_access_enabled = True
        driver.run("objstat", "/p/o")
        with_data = driver.contexts[-1].latency
        driver.system.data_access_enabled = False
        assert with_data > without
