"""One shard of a sharded BENU deployment.

A :class:`ShardNode` is a full :class:`~repro.service.BenuService` bound
to a :class:`~repro.service.protocol.ShardIdentity` — shard *i* of *N*,
at deployment ``epoch`` *e*.  It answers the same wire protocol as a
single-node service; the identity changes exactly two things:

* ``hello`` reports the shard's slot, so a router can verify it is
  talking to the deployment it thinks it is;
* ``register`` partitions every graph by the identity's hash rule, so
  the node enumerates only its owned start-vertex slice of the task
  space (the existing plan and engine run unchanged over it).

Replication is nothing special: two nodes constructed with the *same*
``shard_index`` hold identical slices, and a router may send either one
a partition's work — that is the failover unit.
"""

from __future__ import annotations

from typing import Optional

from ..graph.graph import Graph
from ..service.protocol import (
    ServiceProtocol,
    ShardIdentity,
    serve_socket,
)
from ..service.service import BenuService


class ShardNode:
    """A BenuService wearing one shard's identity."""

    def __init__(
        self,
        shard_index: int,
        shard_count: int,
        epoch: int = 0,
        service: Optional[BenuService] = None,
        **service_kwargs,
    ) -> None:
        self.identity = ShardIdentity(
            shard_index=shard_index, shard_count=shard_count, epoch=epoch
        )
        self.service = (
            service if service is not None else BenuService(**service_kwargs)
        )

    # ------------------------------------------------------------------
    def protocol(self) -> ServiceProtocol:
        """A wire-protocol handler bound to this node's identity."""
        return ServiceProtocol(self.service, identity=self.identity)

    def register_graph(
        self, name: str, graph: Graph, relabel: bool = True,
        replace: bool = False,
    ) -> dict:
        """Register ``graph``, keeping only this shard's task slice."""
        return self.service.register_graph(
            name,
            graph,
            relabel=relabel,
            replace=replace,
            partition=self.identity.partition,
        )

    def health(self) -> dict:
        """The cheap liveness summary the ``health`` op answers with."""
        return self.protocol().health()

    def serve_socket(self, host: str = "127.0.0.1", port: int = 0):
        """A bound TCP server for this shard; caller runs serve_forever."""
        return serve_socket(
            self.service, host=host, port=port, identity=self.identity
        )

    def close(self) -> None:
        self.service.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = self.identity
        return (
            f"ShardNode(shard {ident.shard_index}/{ident.shard_count}, "
            f"epoch {ident.epoch})"
        )
