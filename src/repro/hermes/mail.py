"""Tutor↔student asynchronous interaction via e-mail (§6.2.4, §6.3).

"The interaction between the student and the teacher is implemented
via e-mail. The protocols used for this purpose are SMTP and MIME."

Store-and-forward model: a :class:`MailService` holds mailboxes; a
message submitted on one node travels over the simulated network as
"SMTP"-labelled reliable traffic and lands in the recipient's mailbox
after delivery. Attachments carry MIME types from the Figure 5
format set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.des import Event, Simulator
from repro.net.channel import ReliableReceiver, ReliableSender
from repro.net.topology import Network

__all__ = ["Attachment", "MailMessage", "Mailbox", "MailService"]

#: MIME types for the supported formats (Figure 5).
SUPPORTED_MIME = frozenset({
    "text/plain", "image/gif", "image/tiff", "image/bmp", "image/jpeg",
    "audio/basic", "audio/adpcm", "video/avi", "video/mpeg",
})

@dataclass(frozen=True, slots=True)
class Attachment:
    filename: str
    mime_type: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.mime_type not in SUPPORTED_MIME:
            raise ValueError(f"unsupported MIME type {self.mime_type!r}")
        if self.size_bytes <= 0:
            raise ValueError("attachment size must be positive")


@dataclass(slots=True)
class MailMessage:
    sender: str
    recipient: str
    subject: str
    body: str
    attachments: tuple[Attachment, ...] = ()
    in_reply_to: int | None = None
    #: numbered from 1 per :class:`MailService` as it sends (0 before)
    message_id: int = field(init=False, default=0)

    @property
    def size_bytes(self) -> int:
        return (
            400  # headers
            + len(self.body.encode("utf-8"))
            + sum(a.size_bytes for a in self.attachments)
        )


@dataclass(slots=True)
class Mailbox:
    address: str
    messages: list[MailMessage] = field(default_factory=list)

    def thread(self, root_id: int) -> list[MailMessage]:
        """Root message plus all (transitively) linked replies."""
        ids = {root_id}
        out = []
        for m in self.messages:
            if m.message_id in ids or (m.in_reply_to in ids):
                ids.add(m.message_id)
                out.append(m)
        return out


class MailService:
    """SMTP/MIME-style store-and-forward mail over the network."""

    def __init__(self, sim: Simulator, network: Network,
                 hub_node: str) -> None:
        self.sim = sim
        self.network = network
        self.hub_node = hub_node
        self._boxes: dict[str, Mailbox] = {}
        self._homes: dict[str, str] = {}  # address -> node
        # Hub and submission ports come from their node's allocator, so
        # mail never collides with the control channels on a shared host.
        self._hub_port = network.node(hub_node).ports.allocate("media")
        self._message_ids = itertools.count(1)
        ReliableReceiver(network, hub_node, self._hub_port,
                         on_message=self._on_delivery)
        self.delivered = 0

    # -- accounts -----------------------------------------------------------
    def register(self, address: str, node: str) -> Mailbox:
        if address in self._boxes:
            raise ValueError(f"address {address!r} already registered")
        box = Mailbox(address=address)
        self._boxes[address] = box
        self._homes[address] = node
        return box

    def mailbox(self, address: str) -> Mailbox:
        try:
            return self._boxes[address]
        except KeyError:
            raise KeyError(f"no mailbox {address!r}") from None

    # -- submission / delivery ----------------------------------------------
    def send(self, message: MailMessage) -> Event:
        """Submit a message; returns the event of its delivery."""
        if message.recipient not in self._boxes:
            raise KeyError(f"unknown recipient {message.recipient!r}")
        origin = self._homes.get(message.sender)
        if origin is None:
            raise KeyError(f"unknown sender {message.sender!r}")
        message.message_id = next(self._message_ids)
        ports = self.network.node(origin).ports
        port = ports.allocate("media")
        tx = ReliableSender(
            self.network, origin, port,
            self.hub_node, self._hub_port,
            flow_id=f"mail-{message.message_id}", protocol="SMTP",
        )
        done = tx.send_message(message.size_bytes, payload=message)

        def close(_ev) -> None:
            tx.close()
            ports.release(port)

        done.callbacks.append(close)
        return done

    def _on_delivery(self, payload, size, flow) -> None:
        if not isinstance(payload, MailMessage):
            return
        self._boxes[payload.recipient].messages.append(payload)
        self.delivered += 1
