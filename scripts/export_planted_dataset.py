"""Write the planted synthetic benchmark dataset to a ratings CSV.

The exported file round-trips through the loader and can be fed back to the
CLI via --data, which is handy for poking at the benchmark with external
tools or for pinning one concrete draw of the generator. The default --seed
is `ExperimentConfig().split_seed`, the draw that runs without --data use,
so by default the exported file is that benchmark's dataset.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mcgraph import dataset as ds
from mcgraph import evaluate as ev


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int,
                        default=ev.ExperimentConfig().split_seed)
    parser.add_argument("--users", type=int, default=50)
    parser.add_argument("--items", type=int, default=30)
    parser.add_argument("--criteria", type=int, default=3)
    parser.add_argument("--out", default="planted_ratings.csv")
    args = parser.parse_args()

    data = ev.make_planted_dataset(num_users=args.users, num_items=args.items,
                                   num_criteria=args.criteria, seed=args.seed)
    ds.save_ratings(data, args.out)
    stats = ds.compute_stats(data)
    print(f"wrote {args.out}: {data.num_users} users x {data.num_items} items, "
          f"{len(data)} records, sparsity {stats.sparsity:.3f}")


if __name__ == "__main__":
    main()
