"""TafDB — the scalable, sharded metadata database under Mantle.

Schema (after Figures 2 and 8 of the paper):

* **dirent rows** ``(pid, name, ts=0)`` map a parent directory id and entry
  name to the entry's access metadata (id, kind, permission).  Sharded by
  ``pid`` so one directory's entries co-locate.
* **attribute rows** ``(id, '/_ATTR', ts=0)`` hold a directory's attribute
  metadata, co-located with that directory's *children* (same pid).
* **delta rows** ``(id, '/_ATTR', ts>0)`` are the out-of-place attribute
  updates of §5.2.1; a background compactor folds them into the primary
  attribute row.
* objects store their attributes inline in the dirent row (objects have no
  children, so no separate attribute row is needed).

Layout: a shard keeps its rows per directory, as HopsFS partitions inodes
by parent.  Directory ``pid``'s dirent rows sit in one ``name -> record``
dict, which is also the readdir index; its attribute record and its
``ts -> delta record`` dict are held under its id.  No key object is
stored per row: a :class:`RowKey` is a tuple the API passes in and the
shard splits.  Each record is one slotted object holding the row's value
and version — an object's dirent, its inline attributes and its version
are one record.  Reads build fresh values (:class:`Row`, :class:`Dirent`,
:class:`~repro.types.AttrMeta`) from the records, so no reader ever holds
stored state.

Transactions are optimistic: proxies read versioned rows, stage write
intents with version expectations, and run one-shot single-shard commits or
two-phase commits across shards.  Version mismatches and lock conflicts
abort the transaction (:class:`repro.errors.TransactionAbort`), which is the
mechanism behind the paper's Figure 4b contention collapse.
"""
