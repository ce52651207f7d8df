"""Shared type aliases used across the repro package."""

from __future__ import annotations

from typing import Union

#: Identifier of a replica site (e.g. ``"N1"``).
SiteId = str

#: Identifier of a transaction (globally unique, assigned by the origin site).
TransactionId = str

#: Identifier of a broadcast message.
MessageId = str

#: Identifier of a conflict class (e.g. ``"C_accounts_0"``).
ConflictClassId = str

#: Identifier of a shard — an independent broadcast group + replica set
#: owning a subset of the conflict classes (e.g. ``"S1"``).
ShardId = str

#: Group id of a flat (unsharded) cluster's single replica group, so flat and
#: sharded clusters share one shard-labelled namespace.
FLAT_SHARD_LABEL: ShardId = "global"

#: Key of a data object in the replicated database.
ObjectKey = str

#: Values stored in the database; kept deliberately simple (JSON-like scalars
#: and containers) so that deep-copying snapshots stays cheap and safe.
ObjectValue = Union[None, bool, int, float, str, list, dict, tuple]
