"""Golden outputs: the CSVs of a fixed matrix of runs, pinned byte for byte.

Each case pins the full `summary.csv` text and a SHA-256 of
`utilization.csv`, `transfers.csv` and `staging.csv`. A change that is meant
to keep behaviour must leave every value here untouched; a change that moves
one on purpose re-pins it and records the before and after values, with the
reason, in CHANGES.md.

The module needs nothing outside the standard library and `fedflow`, so the
same cases can be checked under an interpreter that has no pytest:

    python tests/test_golden.py

runs every case and prints `ok` or `DIFFERS` for each; it exits 1 if any
case differs.
"""

import dataclasses
import hashlib
import logging
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fedflow.builtins import BUILTIN_NAMES, generate_builtin_scenario  # noqa: E402
from fedflow.engine import Simulation  # noqa: E402

SEED = 7
HASHED = ("utilization.csv", "transfers.csv", "staging.csv")

# elasticity x locality raises DeadlockError (tests/test_termination.py):
# locality holds ready tasks unassigned, so the elasticity policy never
# grows a pool, and there is no output to pin.
CASES = [
    (name, 0.05 if name == "elasticity" else 0.02, scheduler, "")
    for name in BUILTIN_NAMES
    for scheduler in ("capacity", "locality", "dha")
    if (name, scheduler) != ("elasticity", "locality")
]
# Probe transfers at start, transfer retries and a client poll interval:
# paths the builtins leave at their defaults.
CASES.append(("dynamic-drug", 0.02, "dha", "probe-retry-poll"))
# The same paths under locality, its probes at start included.
CASES.append(("montage-like", 0.02, "locality", "probe-retry-poll"))
# The scheduler hears of a freed worker 5 s late (`mock_sync_lag_s`), so a
# DHA re-scheduling pass can dispatch a task it has yet to visit.
CASES.append(("dynamic-drug", 0.02, "dha", "sync-lag"))
# Every function declares a cost hint, so DHA's first predictions come from
# the hint rather than the true cost.
CASES.append(("drug-like", 0.02, "dha", "cost-hint"))
# Transfers queue behind the concurrency cap long enough that DHA's staging
# estimate, which charges for each link's queue, changes where tasks go.
CASES.append(("montage-like", 0.1, "dha", ""))
# Full-size re-scheduling: thousands of moves (dynamic-drug) and hundreds
# over many prefixes (dynamic-montage).
CASES += [("dynamic-drug", 1.0, "dha", ""), ("dynamic-montage", 1.0, "dha", "")]


def _scenario(name, scale, variant):
    sc = generate_builtin_scenario(name, scale)
    if variant == "probe-retry-poll":
        sc.defaults = dataclasses.replace(
            sc.defaults, probe_at_init=True, transfer_failure_rate=0.3
        )
        sc.network = dataclasses.replace(sc.network, poll_interval_s=5.0)
    elif variant == "sync-lag":
        sc.defaults = dataclasses.replace(sc.defaults, mock_sync_lag_s=5.0)
    elif variant == "cost-hint":
        sc.functions = {
            name: dataclasses.replace(
                fn, cost_hint_fixed_s=0.5 * fn.true_fixed_s, cost_hint_rate_s_per_B=1e-7
            )
            for name, fn in sc.functions.items()
        }
    elif variant == "lossy":
        # Half of all transfer attempts fail and each job retries once, so
        # tasks are retried elsewhere, fail for good and leave unrunnable
        # successors.
        sc.defaults = dataclasses.replace(
            sc.defaults, transfer_failure_rate=0.5, max_transfer_retries=1
        )
    return sc


def run_case(name, scale, scheduler, variant, out_dir):
    """(summary.csv text, {csv name: SHA-256}) of one seeded run."""
    sim = Simulation(_scenario(name, scale, variant), scheduler_kind=scheduler, seed=SEED)
    sim.run().emit(out_dir)
    summary = (out_dir / "summary.csv").read_text()
    digests = {
        csv_name: hashlib.sha256((out_dir / csv_name).read_bytes()).hexdigest()
        for csv_name in HASHED
    }
    return summary, digests


GOLDEN = {
    ('drug-like', 0.02, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n3301.811959,0.529000,0,385,77,10,9\n',
        {
            'utilization.csv': 'bd15545b96ea904d1679bdcda4ed61cf6a57a511eab4942d8e7c114134557dac',
            'transfers.csv': 'fc51b66705267be2fdd012429fd041d9099b989e369cd952b25273a6e224e3bb',
            'staging.csv': '860fd8a16ca52dd946dfacafea39399a90ce58d81f72af0371c5bdea603609f0',
        },
    ),
    ('drug-like', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2528.234533,1.423000,0,405,61,9,6\n',
        {
            'utilization.csv': 'd6a51c8b551badce05db9c08043363f1373e5acba294956a1f95393b5929c4c9',
            'transfers.csv': 'a77db2fb2c139be61eaba86f15501ed549489281fcd915997f3cf15ee03b29bd',
            'staging.csv': 'd0af7a6fa5d045f51f054667cced93604aad901412692faf4f9017a52054bf2e',
        },
    ),
    ('drug-like', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2378.774449,1.136000,0,416,50,9,6\n',
        {
            'utilization.csv': 'eba24a37a17261cfe6f75f4f9170554e3bb1bde2c0a3a21db3f37be968efbf45',
            'transfers.csv': '162011f7250669b4ba53f764fb7669209e60c9e5aeb7f7a7c60b6a8069ff299a',
            'staging.csv': 'c9b73d8e0d4f7b43e0fbb35af3fd3f0f5bc946d98741b71151109df9cb1f4a40',
        },
    ),
    ('montage-like', 0.02, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n307.640715,1.560000,0,51,127,25,25\n',
        {
            'utilization.csv': '457cca16962a024bc41c9a5fe8e3f1df749418ce05bba5fbbfd13bba97d362a3',
            'transfers.csv': '4fcbc8307f32675959734d4cd6a90b89684eba71bde939ba741e5e573cad3566',
            'staging.csv': 'dafeb4f6572c7e6ee22be150e1bf35e0ce49919fa487145ce296edd088733688',
        },
    ),
    ('montage-like', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n263.144322,4.410000,0,44,144,19,21\n',
        {
            'utilization.csv': 'e87e5592f412c4569c1443d8e84cae615e966bd6ddfa2c9f187b51e7fc28bb41',
            'transfers.csv': '5a3871f088b737928c10f244fc153e03de3bd8515afb3781da5370e8b47b862c',
            'staging.csv': '4bd9f7e339c9ddc4d0e2f4d14605961e85c1a448cec7b1c48b45933a169a6403',
        },
    ),
    ('montage-like', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n250.562058,4.265000,0,46,142,19,21\n',
        {
            'utilization.csv': 'ee04092993f9d91a00199818988cce69b4a9e22d11b8b14b8526cfdbb9b3aa02',
            'transfers.csv': 'a0430d63ede8d257c56603d38c2670e0e4a7b6693ea43c21810a1d00d8b8604e',
            'staging.csv': '316e35ed99e620aded303dc439212e21ec6aa364d8fcd613262ba77389d7809f',
        },
    ),
    ('dynamic-drug', 0.02, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n7373.656725,0.838000,0,88,131,11,11\n',
        {
            'utilization.csv': '7fb78eb103abb6ace65ee1c3125d780688c78c852158564d757d4502b613f8b0',
            'transfers.csv': '6a55925fb745e72187ae3d962d57958629c2cd26f3157a590946f09160dd43e2',
            'staging.csv': 'ac74c71609f586ed39af37160e5eccad227485b511bde8b457b1a174dbc7b234',
        },
    ),
    ('dynamic-drug', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2751.873543,1.505000,0,43,180,9,9\n',
        {
            'utilization.csv': '3e2de4b6387f8d5260abfb594812e6ec95925fedc7d6ef60a4bfe600bfc3a304',
            'transfers.csv': 'bee1afde4e5bb022599c0e62fc70401d95d49c553d1bf65c135bf0aa3a7bdcad',
            'staging.csv': '254c5e2cdaef25054d5c41a7e4b7b04e118c52c70590814030d139637a843173',
        },
    ),
    ('dynamic-drug', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2753.604298,1.940000,0,44,179,10,8\n',
        {
            'utilization.csv': 'e6efccc817911378454bb39529637887938bca8c9e04b2f393d64f6bc5c8fe2f',
            'transfers.csv': '641d582aa31f3d57e9e183d4368f8aa4ae4655cacb93355da95dcb8bc7bc103f',
            'staging.csv': '55a89d4df5009985d8fdf3895090b721e9091c6cc3243a6bed390c7824abc2b6',
        },
    ),
    ('dynamic-montage', 0.02, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n331.276908,1.480000,0,29,143,28,28\n',
        {
            'utilization.csv': 'a97d737d3525df1b559f4bfcd7df254ee11bbbe96c301cc58b6551869cb69b80',
            'transfers.csv': '245833209cb6ef9dc491ab634631916ea1ab952f2591d96529adf4a2f90aa343',
            'staging.csv': 'a22762b827b3f441cefdc7540bde0c17e66ae5a6baa2f22511bbd90e3d2fb98b',
        },
    ),
    ('dynamic-montage', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n268.936325,3.725000,0,34,152,20,22\n',
        {
            'utilization.csv': '60470be7a19a26aefcda7e48cbddc2114b72eafbd8a3ff8a99ad1f3cc451bb47',
            'transfers.csv': 'c5e397fa3888beffdb6b8567fe9487a080b540009d78827717df517577b45b62',
            'staging.csv': '5747c28cac2eb6f5982994143b5791c1df901c7aa81612068b58a84e641d2496',
        },
    ),
    ('dynamic-montage', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n258.958348,3.690000,0,35,151,20,22\n',
        {
            'utilization.csv': '93706ba03fe6a9a7b55137133ac9d13d669849cb8517ac15ca83a24d19667990',
            'transfers.csv': 'a02430098356d7c3b762e3a384e6e15dcb9ac45d265ebc2ce446b05c82f1c840',
            'staging.csv': 'e64aaff28856400291a30f93b16cb0d48345876c58faed381b95f50b51199227',
        },
    ),
    ('elasticity', 0.05, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_ep1,tasks_ep2,tasks_ep3\n1090.500000,300.000000,0,11,9,0\n',
        {
            'utilization.csv': 'bbd4c7ee6585851d54be66ad5b1adcd6006c60f1998503fb6a45feb1113e9c72',
            'transfers.csv': '61bc703c49f8ae47692382af50240a766a23ccbf8c13465b5f0d0ffe9e19f1d5',
            'staging.csv': '6fc025dfc7fb829d1a2f8a1cece5b0dae44b6817f34ed336ea0aecce3c07bfb5',
        },
    ),
    ('elasticity', 0.05, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_ep1,tasks_ep2,tasks_ep3\n131.000000,0.000000,0,12,5,3\n',
        {
            'utilization.csv': '2e4e9fb359ee25e298095ea7b267a513109a607f4895908e2bec2e600ff08f1d',
            'transfers.csv': 'a15d71528e47821b32df8c2cff21ff968809d5612d6919a5f3fb76d4053deb65',
            'staging.csv': 'e4a4179ba37e7f171e0be3fb2d0f0b1266d7d577a4ab879ea5033c13096c17f4',
        },
    ),
    ('dynamic-drug', 0.02, 'dha', 'probe-retry-poll'): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2735.000000,2.059829,0,42,180,11,8\n',
        {
            'utilization.csv': '34dab4741e468ca5ccfb139a7a93c08deb9ba48dd67e30270ecf2190c0cb6d8b',
            'transfers.csv': 'a773258a2e96bbf0d78aa7611549eec87b575cc403485f6a3fb5e6a98992b95b',
            'staging.csv': 'f0a60f50a1d15fbbcce3c9220f87eebc9ad7acbc9cc1a53c56b2bd095e5e4e50',
        },
    ),
    ('montage-like', 0.02, 'locality', 'probe-retry-poll'): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n270.000000,4.120829,0,42,147,19,20\n',
        {
            'utilization.csv': '7264f905f4631a98f43699e14ddb882d2fac01e8fc99bdbc210f3ab31dabbb83',
            'transfers.csv': 'ec2beb67d7846bca417348afeddbeb508b1af4cdc94efdb539ee2d5be9a8476b',
            'staging.csv': 'e5cfa7950427f10673afbbc2e619b69d754070f17153f15fc3d17303cf03d5d2',
        },
    ),
    ('dynamic-drug', 0.02, 'dha', 'sync-lag'): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2704.255324,1.897000,0,42,181,10,8\n',
        {
            'utilization.csv': '2870829e5b6060a9ae077341cb3093e6bcbe64a2e4b6ce8832c9a5b88d75d643',
            'transfers.csv': '8fb97e06b81e998cbb838fff239e15d3151a6541e2a1b4eb597fb1985338760c',
            'staging.csv': '0c1b3276198a11386c677510bb1e4092f149a65cb82ee50ede9065e2aeae58e1',
        },
    ),
    ('drug-like', 0.02, 'dha', 'cost-hint'): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2367.706094,1.142000,0,414,50,9,8\n',
        {
            'utilization.csv': '1b70d03abdd45df86a44e330d77a46d3b2de2eef5233ac3bb67a709d49dfb196',
            'transfers.csv': '130a2efafb1fa8294658157a58181ffcf80b9ef0411a137825f01018307ded28',
            'staging.csv': '506221d850315e691ad5a364face436e4c01b86739472b948d8e6584dd3bbd79',
        },
    ),
    ('montage-like', 0.1, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n256.454524,19.505000,0,268,667,96,104\n',
        {
            'utilization.csv': '9e0920ecb2e5288b750ab937bf0c13793cc10a80ec450547dc60f6a1e096d104',
            'transfers.csv': '610472871dc6c51cb0c3f17827dc1f8a3b75f698c26f4bf2635bfbcb2b02c5a4',
            'staging.csv': '2206d493a9c83ff1d310e3346540202ebc0fbf9b5e41bcbb3ffc40acd55a89fc',
        },
    ),
    ('dynamic-drug', 1.0, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2792.830188,98.157000,0,2242,8821,488,450\n',
        {
            'utilization.csv': '3ea1a390722b4d104adcc21e8c822e67cb509fbd36eaba799adc82e48121efba',
            'transfers.csv': '950d86eb435d5d235287db1c6148dfe5137f7880cff600eab3cd3c28495ee2ad',
            'staging.csv': '4e9cb9d8a420728cb038b2d760d4a2bddc30e837e30e52396c2686b1fc545469',
        },
    ),
    ('dynamic-montage', 1.0, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n296.623800,118.425000,0,1220,7884,1011,1225\n',
        {
            'utilization.csv': 'dbb5f174ab6c3e375a172755fd77c14b863f50d6c0b3f4d49ae5a8b179a80a8e',
            'transfers.csv': 'ffec06b15d498a3a59130b1559f6bfed88f94a0170a98f6d362abdac07ec0214',
            'staging.csv': 'b5825136920c1c14e080ed733a7c3f2e45086bb262fdea6991c3a325c6163bc4',
        },
    ),
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


def case_id(case) -> str:
    return "-".join(str(p) for p in case if p)


def pytest_generate_tests(metafunc):
    # The parametrization `pytest.mark.parametrize` would give, without
    # importing pytest.
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", CASES, ids=case_id)


def test_outputs_match_golden(case, tmp_path):
    summary, digests = run_case(*case, tmp_path)
    want_summary, want_digests = GOLDEN[case]
    assert summary == want_summary
    assert digests == want_digests


def main() -> int:
    logging.disable(logging.CRITICAL)  # cases with transfer failures log each one
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            ok = run_case(*case, Path(tmp)) == GOLDEN[case]
        failed += not ok
        print(f"{'ok' if ok else 'DIFFERS':8}{case_id(case)}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases match, "
          f"Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
