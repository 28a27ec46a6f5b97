"""Deterministic TPC-H-like data generation.

``micro_scale = 1`` yields roughly the TPC-H table-count ratios at 1/1000
of scale factor 1: ≈200 parts, ≈1500 orders, ≈6000 lineitems.  The paper's
scale factors 10 and 500 map onto ``micro_scale`` values chosen by the
benchmark profiles; ratios and distributions, not absolute sizes, carry the
results.

Score distributions (normalized to ``(0, 1]``):

* ``part.retailprice``  — near-uniform: many high-ranking tuples (Q1).
* ``lineitem.extendedprice`` — mildly skewed low (``u^1.5``).
* ``orders.totalprice`` — strongly skewed low (``u^3``): few high-ranking
  tuples, so Q2 must descend much deeper (§7.2's Q1/Q2 contrast).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.tpch import schema

Record = dict[str, Any]

#: base table cardinalities at micro_scale == 1
PARTS_PER_UNIT = 200
ORDERS_PER_UNIT = 1500


def _comment(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(schema.COMMENT_WORDS) for _ in range(words))


def _date(rng: random.Random) -> str:
    year = rng.randint(1992, 1998)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return f"{year:04d}-{month:02d}-{day:02d}"


@dataclass
class TPCHData:
    """Generated tables plus the key sequences needed by refresh sets."""

    micro_scale: float
    seed: int
    parts: list[Record] = field(default_factory=list)
    orders: list[Record] = field(default_factory=list)
    lineitems: list[Record] = field(default_factory=list)
    next_order_seq: int = 0
    next_line_seq: int = 0

    @property
    def table_counts(self) -> dict[str, int]:
        return {
            "part": len(self.parts),
            "orders": len(self.orders),
            "lineitem": len(self.lineitems),
        }


def _make_part(rng: random.Random, sequence: int) -> Record:
    return {
        "partkey": f"P{sequence:07d}",
        "name": _comment(rng, 3),
        "mfgr": rng.choice(schema.MFGRS),
        "brand": rng.choice(schema.BRANDS),
        "type": rng.choice(schema.TYPES),
        "size": rng.randint(1, 50),
        "container": rng.choice(schema.CONTAINERS),
        # near-uniform scores: Q1's side has many high-ranking tuples
        "retailprice": round(rng.uniform(0.02, 1.0), 6),
        "comment": _comment(rng, 5),
    }


def _make_order(rng: random.Random, sequence: int) -> Record:
    return {
        "orderkey": f"O{sequence:08d}",
        "custkey": f"C{rng.randint(0, 99999):06d}",
        "orderstatus": rng.choice("OFP"),
        # strongly skewed low: few high-ranking tuples for Q2
        "totalprice": round(max(1e-6, rng.random() ** 3), 6),
        "orderdate": _date(rng),
        "orderpriority": rng.choice(schema.ORDER_PRIORITIES),
        "clerk": f"Clerk#{rng.randint(0, 999):05d}",
        "shippriority": 0,
        "comment": _comment(rng, 6),
    }


def _make_lineitem(
    rng: random.Random,
    sequence: int,
    orderkey: str,
    linenumber: int,
    partkeys: "list[str]",
) -> Record:
    return {
        "rowkey": f"L{sequence:09d}",
        "orderkey": orderkey,
        "partkey": rng.choice(partkeys),
        "suppkey": f"S{rng.randint(0, 9999):05d}",
        "linenumber": linenumber,
        "quantity": rng.randint(1, 50),
        # mildly skewed low
        "extendedprice": round(max(1e-6, rng.random() ** 1.5), 6),
        "discount": round(rng.uniform(0.0, 0.1), 2),
        "tax": round(rng.uniform(0.0, 0.08), 2),
        "returnflag": rng.choice("ARN"),
        "linestatus": rng.choice("OF"),
        "shipdate": _date(rng),
        "commitdate": _date(rng),
        "receiptdate": _date(rng),
        "shipinstruct": rng.choice(schema.SHIP_INSTRUCTIONS),
        "shipmode": rng.choice(schema.SHIP_MODES),
        "comment": _comment(rng, 4),
    }


def generate(micro_scale: float = 1.0, seed: int = 1) -> TPCHData:
    """Generate the three tables deterministically.

    Args:
        micro_scale: dataset size multiplier (1.0 ≈ 200/1500/6000 rows).
        seed: RNG seed; identical arguments produce identical data.
    """
    if micro_scale <= 0:
        raise ValueError(f"micro_scale must be positive: {micro_scale}")
    rng = random.Random(seed)
    data = TPCHData(micro_scale=micro_scale, seed=seed)

    part_count = max(2, round(PARTS_PER_UNIT * micro_scale))
    order_count = max(2, round(ORDERS_PER_UNIT * micro_scale))

    data.parts = [_make_part(rng, i) for i in range(part_count)]
    partkeys = [part["partkey"] for part in data.parts]

    line_seq = 0
    for order_seq in range(order_count):
        order = _make_order(rng, order_seq)
        data.orders.append(order)
        # uniform 1..7 lines, mean 4 => ~6000 lineitems per unit of scale
        for linenumber in range(1, rng.randint(1, 7) + 1):
            data.lineitems.append(
                _make_lineitem(rng, line_seq, order["orderkey"], linenumber, partkeys)
            )
            line_seq += 1
    data.next_order_seq = order_count
    data.next_line_seq = line_seq
    return data
