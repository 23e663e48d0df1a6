"""Server side of the service.

Implements §2/§4/§5's sending-edge components: the multimedia
database holding presentation scenarios; subscription, authentication
and pricing primitives; connection admission control weighing network
load, QoS requirements and the user's pricing contract; the flow
scheduler that turns a presentation scenario into a per-stream flow
scenario; per-media-type media servers streaming over RTP (continuous)
or the reliable channel (discrete); and the Server QoS Manager that
consumes RTCP receiver reports and drives the Media Stream Quality
Converter (graceful degrade/upgrade — the long-term recovery
mechanism).
"""

from repro.server.accounts import (
    AccountRegistry,
    PricingContract,
    SubscriptionForm,
    UserAccount,
    CONTRACT_CLASSES,
)
from repro.server.database import MultimediaDatabase, StoredDocument
from repro.server.admission import (
    AdmissionController,
    AdmissionRequest,
    AdmissionResult,
)
from repro.server.flow_scheduler import FlowScenario, FlowScheduler, FlowSpec
from repro.server.quality_converter import MediaStreamQualityConverter
from repro.server.qos_manager import GradingDecision, GradingPolicy, ServerQoSManager
from repro.server.media_server import MediaServer, StreamHandler
from repro.server.multimedia_server import MultimediaServer
from repro.server.shared_flow import SharedFlowManager

__all__ = [
    "AccountRegistry",
    "AdmissionController",
    "AdmissionRequest",
    "AdmissionResult",
    "CONTRACT_CLASSES",
    "FlowScenario",
    "FlowScheduler",
    "FlowSpec",
    "GradingDecision",
    "GradingPolicy",
    "MediaServer",
    "MediaStreamQualityConverter",
    "MultimediaDatabase",
    "MultimediaServer",
    "PricingContract",
    "ServerQoSManager",
    "SharedFlowManager",
    "StoredDocument",
    "StreamHandler",
    "SubscriptionForm",
    "UserAccount",
]
