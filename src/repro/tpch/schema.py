"""Payload vocabulary of the generated TPC-H-like tables.

Beyond the join and score columns, every table carries its realistic
complement of "payload" columns, drawn from the vocabulary below.  These matter for the experiments: Hive
ships whole rows through its join job while Pig projects early (§3.1), and
the index-based algorithms ship none of them — reproducing the bandwidth
ordering requires rows that are genuinely wider than (key, join, score).
"""

from __future__ import annotations

#: TPC-H-flavoured vocabulary for payload columns
MFGRS = ("Manufacturer#1", "Manufacturer#2", "Manufacturer#3",
         "Manufacturer#4", "Manufacturer#5")
BRANDS = tuple(f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6))
TYPES = ("STANDARD ANODIZED TIN", "SMALL PLATED COPPER", "MEDIUM POLISHED BRASS",
         "ECONOMY BURNISHED STEEL", "PROMO BRUSHED NICKEL", "LARGE PLATED STEEL")
CONTAINERS = ("SM CASE", "SM BOX", "MED BAG", "MED PKG", "LG CASE",
              "LG DRUM", "JUMBO JAR", "WRAP PACK")
ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
SHIP_INSTRUCTIONS = ("DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN")
SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
COMMENT_WORDS = (
    "furiously", "quickly", "carefully", "blithely", "slyly", "regular",
    "express", "special", "pending", "final", "ironic", "even", "bold",
    "packages", "deposits", "accounts", "requests", "instructions", "theodolites",
    "foxes", "pinto", "beans", "asymptotes", "dependencies", "platelets",
)
