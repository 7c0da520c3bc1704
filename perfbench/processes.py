"""The benchmark's process models and service implementations.

The models are the shipped examples' processes, rebuilt here because the
example scripts run their demo at import time:

* ``container_handling`` + ``customs_clearance`` from
  ``examples/port_container_handling.py`` (EDI intake service, a
  dangerous-goods user task, a call activity whose child declares to
  customs and waits on an event gateway for the verdict message, an
  inspection user task, a parallel yard move, and a send task);
* ``order`` from ``examples/order_fulfillment.py`` (stock reservation
  with an out-of-stock error boundary, a flaky payment provider behind a
  retry policy, a parallel gateway, and scripts);
* ``carrier_pickup``, which waits for the port's ``container_ready``
  message; the cluster workload keys it on its own business key, so the
  send task crosses shards through the outbox.

The services read nothing but the generated inputs: the manifest text,
the order lines, and the failure schedule of the payment provider.
"""

from __future__ import annotations

from repro import ProcessBuilder
from repro.engine.errors import BpmnError
from repro.model.elements import RetryPolicy
from repro.services.edi import EdiMessage, EdiSegment, decode_edi, encode_edi

#: most payment attempts an order may need; the generator never schedules
#: more failures than this allows, so no order exhausts its retries
PAYMENT_ATTEMPTS = 5

ROLES = {
    "dg_specialist": ("dg_dora", "dg_dan"),
    "crane_operator": ("crane_carl", "crane_cora", "crane_cid", "crane_cy"),
    "customs_officer": ("officer_li", "officer_lu"),
}


def parse_manifest(edi_text):
    """Decode an IFTMIN-style manifest into process variables."""
    message = decode_edi(edi_text)
    bgm = message.first("BGM")
    dgs = message.first("DGS")
    eqd = message.first("EQD")
    return {
        "container_id": eqd.element(1) if eqd else "?",
        "document": bgm.element(1) if bgm else "?",
        "dangerous_goods": dgs is not None,
        "imo_class": dgs.element(1) if dgs else None,
    }


def send_customs_declaration(container_id):
    """Encode the CUSDEC the terminal sends to the customs single window."""
    return encode_edi(
        EdiMessage(
            segments=[
                EdiSegment("UNH", (("1",), ("CUSDEC", "D", "96B"))),
                EdiSegment("BGM", (("929",), (container_id,))),
                EdiSegment("UNT", (("3",), ("1",))),
            ]
        )
    )


CUSTOMS = (
    ProcessBuilder("customs_clearance", name="Customs clearance")
    .start()
    .service_task(
        "declare",
        service="send_customs_declaration",
        inputs={"container_id": "container_id"},
        output_variable="cusdec",
    )
    .event_gateway("await_verdict")
    .branch()
    .message_catch(
        "released", message_name="customs_release",
        correlation_expression="container_id",
    )
    .script_task("mark_released", script="customs_status = 'released'")
    .exclusive_gateway("verdict_merge")
    .branch_from("await_verdict")
    .message_catch(
        "inspection", message_name="customs_inspection",
        correlation_expression="container_id",
    )
    .user_task("physical_inspection", role="customs_officer")
    .script_task("mark_inspected", script="customs_status = 'inspected'")
    .connect_to("verdict_merge")
    .move_to("verdict_merge")
    .end()
    .build()
)

TERMINAL = (
    ProcessBuilder("container_handling", name="Container handling")
    .start()
    .service_task(
        "intake",
        service="parse_manifest",
        inputs={"edi_text": "manifest"},
        output_variable="cargo",
    )
    .script_task(
        "register",
        script=(
            "container_id = cargo['container_id']\n"
            "dangerous = cargo['dangerous_goods']"
        ),
    )
    .exclusive_gateway("dg_check")
    .branch(condition="dangerous == true")
    .user_task("dg_clearance", role="dg_specialist", name="Dangerous goods clearance")
    .exclusive_gateway("dg_merge")
    .branch_from("dg_check", default=True)
    .connect_to("dg_merge")
    .move_to("dg_merge")
    .call_activity("customs", process_key="customs_clearance")
    .parallel_gateway("yard_ops")
    .branch()
    .user_task("yard_move", role="crane_operator", name="Move to stack")
    .parallel_gateway("ops_done")
    .branch_from("yard_ops")
    .script_task("update_tos", script="tos_updated = true")
    .connect_to("ops_done")
    .move_to("ops_done")
    .send_task(
        "notify_carrier",
        message_name="container_ready",
        payload_expression="{'correlation': container_id, 'status': customs_status}",
    )
    .end()
    .build()
)

CARRIER_PICKUP = (
    ProcessBuilder("carrier_pickup", name="Carrier pickup")
    .start()
    .message_catch(
        "ready", message_name="container_ready",
        correlation_expression="container_id",
    )
    .script_task("book_truck", script="pickup = 'booked'")
    .end()
    .build()
)

ORDER = (
    ProcessBuilder("order", name="Order fulfillment")
    .start()
    .service_task(
        "reserve",
        service="reserve_stock",
        inputs={"sku": "sku", "quantity": "quantity"},
        output_variable="reservation",
    )
    .service_task(
        "charge",
        service="charge_card",
        inputs={"amount": "quantity * unit_price", "order_no": "order_no"},
        output_variable="payment",
        retry=RetryPolicy(max_attempts=PAYMENT_ATTEMPTS, initial_backoff=0.01),
    )
    .parallel_gateway("prep")
    .branch()
    .service_task("label", service="print_label", inputs={"sku": "sku"},
                  output_variable="label")
    .parallel_gateway("ready")
    .branch_from("prep")
    .script_task("notify", script="notified = true")
    .connect_to("ready")
    .move_to("ready")
    .script_task("close", script="status = 'shipped'")
    .end("done")
    .boundary_error("no_stock", attached_to="reserve", error_code="OUT_OF_STOCK")
    .script_task("backorder", script="status = 'backordered'")
    .end("backordered")
    .build()
)


class OrderServices:
    """Warehouse stock and a flaky payment provider, both seeded.

    ``stock`` is the generated opening inventory; ``failures`` maps an
    order number to how many payment attempts fail before one succeeds.
    """

    def __init__(self, stock: dict[str, int], failures: dict[str, int]) -> None:
        self.stock = dict(stock)
        self._failures = dict(failures)

    def reserve_stock(self, sku, quantity):
        available = self.stock.get(sku, 0)
        if available < quantity:
            raise BpmnError("OUT_OF_STOCK", f"{sku}: want {quantity}, have {available}")
        self.stock[sku] = available - quantity
        return {"sku": sku, "reserved": quantity}

    def charge_card(self, amount, order_no):
        left = self._failures.get(order_no, 0)
        if left:
            self._failures[order_no] = left - 1
            raise ConnectionError("payment gateway timeout")
        return {"charged": amount, "txn": f"txn-{order_no}"}

    @staticmethod
    def print_label(sku):
        return f"LABEL::{sku}"

    def register(self, registry) -> None:
        registry.register("reserve_stock", self.reserve_stock)
        registry.register("charge_card", self.charge_card)
        registry.register("print_label", self.print_label)


def register_port(registry) -> None:
    registry.register("parse_manifest", parse_manifest)
    registry.register("send_customs_declaration", send_customs_declaration)


def add_port_staff(organization) -> None:
    for role, people in ROLES.items():
        for person in people:
            organization.add(person, roles=[role])
