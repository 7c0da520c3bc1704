"""Seeded input generators: the only thing the program under test sees.

Every workload round draws its inputs from ``random.Random(seed, round)``,
so one seed always gives the same manifests, verdicts, orders, stock and
payment failures, and every round of a run has inputs of its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from processes import PAYMENT_ATTEMPTS

DANGEROUS_SHARE = 0.30
INSPECTION_SHARE = 0.10
PAYMENT_FAILURE_RATE = 0.30
SKUS = tuple(f"SKU-{n:03d}" for n in range(40))
OWNERS = ("MSKU", "HLXU", "CMAU", "OOLU", "MSCU", "TGHU", "APZU", "CSNU")


def round_rng(seed: int, round_no: int) -> random.Random:
    return random.Random(f"{seed}:{round_no}")


@dataclass(frozen=True)
class Container:
    container_id: str
    manifest: str
    dangerous: bool
    verdict: str  # "release" | "inspection"
    booking: str  # the carrier's pickup booking, its own business key

    @property
    def customs_status(self) -> str:
        return "released" if self.verdict == "release" else "inspected"


@dataclass(frozen=True)
class PortInputs:
    containers: tuple[Container, ...]
    verdict_order: tuple[int, ...]  # indices into containers


def port_inputs(rng: random.Random, count: int) -> PortInputs:
    ids: set[str] = set()
    containers = []
    for n in range(count):
        while True:
            cid = f"{rng.choice(OWNERS)}{rng.randrange(10**7):07d}"
            if cid not in ids:
                ids.add(cid)
                break
        dangerous = rng.random() < DANGEROUS_SHARE
        segments = [
            f"UNH+{n + 1}+IFTMIN",
            f"BGM+85+DOC-{n + 1:06d}",
            f"EQD+CN+{cid}",
        ]
        if dangerous:
            segments.append(f"DGS+{rng.choice('123456789')}+{rng.randrange(1000, 3600)}")
        verdict = "inspection" if rng.random() < INSPECTION_SHARE else "release"
        booking = f"BK-{n + 1:05d}-{rng.randrange(10**6):06d}"
        containers.append(Container(cid, "'".join(segments) + "'", dangerous, verdict, booking))
    order = list(range(count))
    rng.shuffle(order)
    return PortInputs(tuple(containers), tuple(order))


@dataclass(frozen=True)
class Order:
    order_no: str
    sku: str
    quantity: int
    unit_price: float
    payment_failures: int
    expected_status: str  # the inventory oracle: "shipped" | "backordered"


@dataclass(frozen=True)
class OrderInputs:
    stock: dict
    orders: tuple[Order, ...]

    @property
    def payment_failures(self) -> dict[str, int]:
        return {o.order_no: o.payment_failures for o in self.orders}


def order_inputs(rng: random.Random, count: int, prefix: str) -> OrderInputs:
    """Orders against an opening stock: a fifth of the SKUs are sold out,
    the rest stocked to exactly their demand, so backorders spread evenly
    over the round instead of piling up at its end."""
    lines = [(rng.choice(SKUS), rng.randint(1, 5)) for _ in range(count)]
    sold_out = set(rng.sample(SKUS, len(SKUS) // 5))
    stock = {sku: 0 for sku in SKUS}
    for sku, quantity in lines:
        if sku not in sold_out:
            stock[sku] += quantity
    left = dict(stock)
    orders = []
    for n, (sku, quantity) in enumerate(lines):
        failures = 0
        while failures < PAYMENT_ATTEMPTS - 1 and rng.random() < PAYMENT_FAILURE_RATE:
            failures += 1
        if left[sku] >= quantity:
            left[sku] -= quantity
            status = "shipped"
        else:
            status = "backordered"
        orders.append(
            Order(
                order_no=f"{prefix}{n + 1:06d}",
                sku=sku,
                quantity=quantity,
                unit_price=round(rng.uniform(2.0, 90.0), 2),
                payment_failures=failures if status == "shipped" else 0,
                expected_status=status,
            )
        )
    return OrderInputs(stock, tuple(orders))
