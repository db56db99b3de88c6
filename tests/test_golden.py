"""Golden outputs: the CSVs of a fixed matrix of runs, pinned byte for byte.

Each case pins the full `summary.csv` text and a SHA-256 of
`utilization.csv`, `transfers.csv` and `staging.csv`. A change that is meant
to keep behaviour must leave every value here untouched; a change that moves
one on purpose re-pins it and records the before and after values, with the
reason, in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from fedflow.builtins import BUILTIN_NAMES, generate_builtin_scenario
from fedflow.engine import Simulation

SEED = 7
HASHED = ("utilization.csv", "transfers.csv", "staging.csv")

# elasticity x locality never terminates: locality holds ready tasks
# unassigned, so the elasticity policy never grows a pool.
CASES = [
    (name, 0.05 if name == "elasticity" else 0.02, scheduler, "")
    for name in BUILTIN_NAMES
    for scheduler in ("capacity", "locality", "dha")
    if (name, scheduler) != ("elasticity", "locality")
]
# Probe transfers at start, transfer retries and a client poll interval:
# paths the builtins leave at their defaults.
CASES.append(("dynamic-drug", 0.02, "dha", "probe-retry-poll"))
# The same paths under locality: one task runs out of transfer retries, so
# locality's own retry choice and its probes at start are both exercised.
CASES.append(("montage-like", 0.02, "locality", "probe-retry-poll"))
# The scheduler hears of a freed worker 5 s late (`mock_sync_lag_s`), so a
# DHA re-scheduling pass can dispatch a task it has yet to visit.
CASES.append(("dynamic-drug", 0.02, "dha", "sync-lag"))
# Every function declares a cost hint, so DHA's first predictions come from
# the hint rather than the true cost.
CASES.append(("drug-like", 0.02, "dha", "cost-hint"))


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
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n3319.383991,0.529000,0,385,77,10,9\n',
        {
            'utilization.csv': '092f68574bf130a2d0fb038c2f73884535cdc868f38574161fbec0632df8c50b',
            'transfers.csv': '422c29636db17845c47c27238c5d43826215e86cdad125e7a4693bc4e1b77a41',
            'staging.csv': 'fd9d51339cc506e663a69d8b269d65c5bbea8b58e08bb78983ffc3df289a50a0',
        },
    ),
    ('drug-like', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2522.837066,1.336000,0,410,54,9,8\n',
        {
            'utilization.csv': '14428f4f68038175cf6c7fb07f57dd76b5aa8374732912ce3a3baf80d7b4a9fb',
            'transfers.csv': 'd63cde191d6a94f4e7c756075707eb457a644cd1ee767509a7b708f1cad602fc',
            'staging.csv': 'd7e632b3ad693516fa0fb52007b9a67f02db69434fbc64ff02ead276f0256d91',
        },
    ),
    ('drug-like', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2394.228986,1.227000,0,411,55,9,6\n',
        {
            'utilization.csv': 'ab24299815889109395d7175326dc78a5f067fa673ff4e8d7f27812f33212953',
            'transfers.csv': '691e8daaa140f72145bd8cceeb23b0cfdb4b91d4432ce1b0987cc97f91a568f8',
            'staging.csv': 'c65a0734049e77d88764e0ebdc9cb535f23c283877b97976d62405da73196795',
        },
    ),
    ('montage-like', 0.02, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n310.176058,1.560000,0,51,127,25,25\n',
        {
            'utilization.csv': 'f864269316771c4f41dc3d19b09fd1710303a670142c2fb1f7605bfc5e78e090',
            'transfers.csv': '4fb66d8988b980b697eff61f0825c1d93f602c5a77531c285480ec74c658a8a7',
            'staging.csv': '37945ea0283f31b19e9f518007965f14c793205fd568d5719f2ca1c2acd47b88',
        },
    ),
    ('montage-like', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n259.153481,3.980000,0,44,145,19,20\n',
        {
            'utilization.csv': 'e787e1c2883b1db1f3f71d87aa5f76e08bfa680cb12d577ec344d88f8b9c23a5',
            'transfers.csv': 'bd04c0fc4c5c64ef07c281a9bfc14200980e0c3afa981a10d6f16ad6949b9305',
            'staging.csv': '0b4d4d20b9a71cb8a8cad7d8e85d20bc2b0b503abf0c53fb34dc6bcf166a3fc9',
        },
    ),
    ('montage-like', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n256.311745,4.425000,0,46,141,19,22\n',
        {
            'utilization.csv': '9b0d90eeaed0d8690eebbf8d3f0a93794dc4b6b9658f0d6f359bce5cc1d91603',
            'transfers.csv': '6f16fbaf0808fed592526d02f8f2598b8a125cca93c8016210fdb7cc7ba0e3fd',
            'staging.csv': '113c62b264e7ae94956f177ed3d84af65e31c4aa5d93835e60c34ea352fc1427',
        },
    ),
    ('dynamic-drug', 0.02, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n7339.588812,0.838000,0,88,131,11,11\n',
        {
            'utilization.csv': '7294682d47931997b3ad1cc49e90851088ae709b82e2c5e42e4401a29fc2b4fc',
            'transfers.csv': 'd32460b4b4114b9e927c344bf1deeae9123416f7993533038b21004c11222e8e',
            'staging.csv': 'e8a4be89537c93181d2e392792b5bef61afe1493ac82dbcabe9c21483276c94b',
        },
    ),
    ('dynamic-drug', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2704.390886,1.535000,0,44,179,9,9\n',
        {
            'utilization.csv': '51c0273ee792cbbe5c7fdd5813d50448b0c041c9a97cfd68b849e71628d67ca5',
            'transfers.csv': 'fe817d3738f255e7df9575f1cb12d006d74aad6db51f85d296c6b3e735c770c9',
            'staging.csv': 'cb7108bb6aac7e85768ed26712928b4fbc61f2fe789b2e4fb03c3b1073b6bd08',
        },
    ),
    ('dynamic-drug', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2749.918119,1.897000,0,43,180,10,8\n',
        {
            'utilization.csv': '3e7833eee40e8a4e0fb1a1e80fc6edf443f1c911439a8623e6bce95a885ddd84',
            'transfers.csv': 'a1f35835c5b6cebbd8ea8d0aa9729df5995e056069e5e65caaa44098603444ab',
            'staging.csv': '850ad707a408dca7249a78cdb685696e7a271a60be1f0634cfaf3c809df077fc',
        },
    ),
    ('dynamic-montage', 0.02, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n332.303028,1.480000,0,29,143,28,28\n',
        {
            'utilization.csv': 'c2942bd244a1532b1fbecee2cfbfd168a110393235fba31d6ca3176c95f8c344',
            'transfers.csv': '08a6ae63ab1319cb6a431094af1f5f389bfdf4cdfd43ca976725de8bb4e27623',
            'staging.csv': '1a659e229d193288820a92f4ed074dfb348bf508e04febe30e532372525f7b8e',
        },
    ),
    ('dynamic-montage', 0.02, 'locality', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n270.487897,3.940000,0,34,152,20,22\n',
        {
            'utilization.csv': '26a8a1572bdf8c68435e36025e6932626b1af19f2ca2c71bb92ec83fbe4446ef',
            'transfers.csv': '96cb2220eeffa22bd519821232411cc90a236fc9d3819fb5f315a8cf8c5b1c19',
            'staging.csv': 'd8c0b1383635943f1e4749ffdbfc34b1c0a7b588bde0f21acd83ace5f5160c77',
        },
    ),
    ('dynamic-montage', 0.02, 'dha', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n267.858241,3.990000,0,36,149,21,22\n',
        {
            'utilization.csv': '77b7bbc79a208c34b7ad8a3de80955befef092155d5f4003b22619853ff93401',
            'transfers.csv': '47257f627f869eddfa2c639fb08d9996c0efc270a2c5ddd9dc5b68bcca657ece',
            'staging.csv': '7fefc50e05a775149cb10b47d278cc465b9003a900e37c4c85eb2630453de44d',
        },
    ),
    ('elasticity', 0.05, 'capacity', ''): (
        'makespan_s,transfer_GB,tasks_failed,tasks_ep1,tasks_ep2,tasks_ep3\n1090.500000,300.000000,0,11,9,0\n',
        {
            'utilization.csv': 'bbd4c7ee6585851d54be66ad5b1adcd6006c60f1998503fb6a45feb1113e9c72',
            'transfers.csv': 'e9743d8b17e92a927b6a0828e64750418be51e1f18dd95d53289245c8ff29ba1',
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
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2775.000000,1.984829,0,43,180,10,8\n',
        {
            'utilization.csv': '678120255ca69b8f34bbd9640f3f75d5a9b70314ed4bdb459fb265a72f56af73',
            'transfers.csv': 'aad069dc4ae35ea41bdac8461c69ebe7ca6920482371f58ba0ec7f724f9402a0',
            'staging.csv': '98f2cf4aaaa8ecfa29fc6b7eaaab496c067b97b1ef6389cb675e2b280646027c',
        },
    ),
    ('montage-like', 0.02, 'locality', 'probe-retry-poll'): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n280.000000,4.155829,0,43,145,19,21\n',
        {
            'utilization.csv': '7d4f201e030cf9f36b3d0c510117e1bc791de72f9c3d17bfd9553c0a4f15fb2d',
            'transfers.csv': '0672a760f09aacf27842df986e76665aee43c8747430ee23c7f3d647fa69d69d',
            'staging.csv': '613c2a43b47cd13e3dd65b2acc88e2425bdd8e9391ec60736ab0c447947dd089',
        },
    ),
    ('dynamic-drug', 0.02, 'dha', 'sync-lag'): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2780.837063,1.922000,0,42,181,10,8\n',
        {
            'utilization.csv': '9ad2fe878b08a41eb1ea1926e5308594858088d86ac8722e17aea8f5fce3e119',
            'transfers.csv': '11acdaadd21e40edee1ce56ad5c557ee1b1306c481f874ed7467228cf9ca11d7',
            'staging.csv': '3a486897ce76b4478ca211fca31205c97da9e9aa4dec1619c37415926e91ba37',
        },
    ),
    ('drug-like', 0.02, 'dha', 'cost-hint'): (
        'makespan_s,transfer_GB,tasks_failed,tasks_taiyi,tasks_qiming,tasks_dept,tasks_lab\n2396.099631,1.137000,0,413,50,10,8\n',
        {
            'utilization.csv': '76041cb11197640a6fc2ca2ac588eeb8b19b92b292edb8eb5911d760e5c93a78',
            'transfers.csv': '2ad1e1ba3b4c2a66b94950d5d23262d2cc51430ef20f6f8efaeac037ad2e5ba3',
            'staging.csv': '4b6f4e58cffa396fc8fca093ddba47d9b95f8592ac7694b99664c1f44949024a',
        },
    ),
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(str(p) for p in c if p))
def test_outputs_match_golden(case, tmp_path):
    summary, digests = run_case(*case, tmp_path)
    want_summary, want_digests = GOLDEN[case]
    assert summary == want_summary
    assert digests == want_digests
