"""``trial_orders``: one cell's stream from ``consensus.orders_per_cell``,
the form in which most engine tests order a cell."""

from fairorder.consensus import orders_per_cell


def trial_orders(run, policy, invocations, plan, trials, trial_ids, trial_seed):
    (orders,) = orders_per_cell(run, [(policy, invocations, plan, trial_ids, trial_seed)], trials)
    return orders
