#!/usr/bin/env python3
"""Fold measured [tableN] rows from bench_output.txt into EXPERIMENTS.md."""
import os

ROOT = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(ROOT, "bench_output.txt")) as f:
    out = f.read()

def rows(tag):
    return "\n".join(l[l.index(f"[{tag}]"):] for l in out.splitlines() if f"[{tag}]" in l and "paper" not in l[:6])

with open(os.path.join(ROOT, "EXPERIMENTS.md")) as f:
    md = f.read()

for tag, marker in [("table4", "TABLE4_MEASURED"), ("table5", "TABLE5_MEASURED"),
                    ("table6", "TABLE6_MEASURED"), ("table7", "TABLE7_MEASURED"),
                    ("table8", "TABLE8_MEASURED")]:
    block = "```\n" + rows(tag) + "\n```"
    md = md.replace(f"<!-- {marker} -->", block)

with open(os.path.join(ROOT, "EXPERIMENTS.md"), "w") as f:
    f.write(md)
print("filled")
