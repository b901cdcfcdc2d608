//! A trading world: the Section I financial-transaction motivation.
//!
//! "In the best case, inconsistency may just lead to transient visible
//! artifacts with no long-term consequences. However, in practice, it can
//! easily cause much more serious problems, like objects being lost or
//! duplicated during a financial transaction."
//!
//! Traders hold gold and items and exchange them pairwise. The world's
//! conservation laws — total gold and total items never change — are the
//! sharpest possible consistency probe: any lost update or double-applied
//! trade breaks them, and [`TradeWorld::conservation_holds`] checks them on
//! any replica.

use crate::action::{Action, GameWorld, Influence, Outcome};
use crate::geometry::Vec2;
use crate::ids::{ActionId, AttrId, ClientId, ObjectId};
use crate::objset::ObjectSet;
use crate::semantics::Semantics;
use crate::state::{WorldState, WriteLog};
use crate::worlds::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Attribute: gold held ([`crate::value::Value::I64`]).
pub const GOLD: AttrId = AttrId(0);
/// Attribute: items held ([`crate::value::Value::I64`]).
pub const ITEMS: AttrId = AttrId(1);
/// Attribute: trades completed ([`crate::value::Value::I64`]).
pub const TRADES: AttrId = AttrId(2);

/// Configuration of the trading world.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TradeConfig {
    /// Number of traders (= clients).
    pub traders: usize,
    /// Starting gold per trader.
    pub starting_gold: i64,
    /// Starting items per trader.
    pub starting_items: i64,
    /// Gold paid per item.
    pub price: i64,
    /// Traders stand on a circle with this spacing (geometry only matters
    /// for the bound models; trades are semantic, not spatial).
    pub spacing: f64,
    /// Workload seed.
    pub seed: u64,
    /// Evaluation cost per trade, µs.
    pub trade_cost_us: u64,
}

impl Default for TradeConfig {
    fn default() -> Self {
        Self {
            traders: 16,
            starting_gold: 100,
            starting_items: 10,
            price: 5,
            spacing: 10.0,
            seed: 0x7ADE,
            trade_cost_us: 500,
        }
    }
}

/// Immutable environment: the market geometry.
#[derive(Debug)]
pub struct TradeEnv {
    /// The configuration.
    pub config: TradeConfig,
    /// Ring radius for trader positions.
    pub ring_radius: f64,
    /// Ring center.
    pub center: Vec2,
}

impl TradeEnv {
    /// Stand position of trader `i`.
    pub fn stand(&self, i: usize) -> Vec2 {
        let theta = std::f64::consts::TAU * i as f64 / self.config.traders as f64;
        self.center + Vec2::from_angle(theta) * self.ring_radius
    }
}

/// Buy one item from `seller` for `price` gold.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct TradeAction {
    id: ActionId,
    /// The counterparty sold from.
    pub seller: ObjectId,
    /// Gold offered.
    pub price: i64,
    /// Buyer's stand position (influence center).
    pub stand: Vec2,
    rs: ObjectSet,
    ws: ObjectSet,
    /// Influence radius (reach across the market ring).
    radius: f64,
}

impl Action for TradeAction {
    type Env = TradeEnv;

    fn id(&self) -> ActionId {
        self.id
    }

    fn read_set(&self) -> &ObjectSet {
        &self.rs
    }

    fn write_set(&self) -> &ObjectSet {
        &self.ws
    }

    fn influence(&self) -> Influence {
        Influence::sphere(self.stand, self.radius)
    }

    fn evaluate(&self, _env: &Self::Env, state: &WorldState) -> Outcome {
        let buyer = ObjectId(u32::from(self.id.client.0));
        let get = |o: ObjectId, a: AttrId| state.attr(o, a).and_then(|v| v.as_i64());
        let (Some(buyer_gold), Some(buyer_items), Some(buyer_trades)) =
            (get(buyer, GOLD), get(buyer, ITEMS), get(buyer, TRADES))
        else {
            return Outcome::abort();
        };
        let (Some(seller_gold), Some(seller_items)) =
            (get(self.seller, GOLD), get(self.seller, ITEMS))
        else {
            return Outcome::abort();
        };
        // The transaction's own conflict check: funds and stock must be
        // there *at serialization time*, or the trade is a no-op.
        if buyer_gold < self.price || seller_items < 1 || buyer == self.seller {
            return Outcome::abort();
        }
        let mut w = WriteLog::new();
        w.push(buyer, GOLD, (buyer_gold - self.price).into());
        w.push(buyer, ITEMS, (buyer_items + 1).into());
        w.push(buyer, TRADES, (buyer_trades + 1).into());
        w.push(self.seller, GOLD, (seller_gold + self.price).into());
        w.push(self.seller, ITEMS, (seller_items - 1).into());
        Outcome::ok(w)
    }
}

/// The trading world.
pub struct TradeWorld {
    env: Arc<TradeEnv>,
    initial: WorldState,
}

impl TradeWorld {
    /// Build the market.
    pub fn new(config: TradeConfig) -> Self {
        assert!(config.traders >= 2, "a market needs two traders");
        let ring_radius = (config.traders as f64 * config.spacing) / std::f64::consts::TAU;
        let center = Vec2::new(ring_radius + config.spacing, ring_radius + config.spacing);
        let mut initial = WorldState::new();
        for i in 0..config.traders {
            let id = ObjectId(i as u32);
            initial.set_attr(id, GOLD, config.starting_gold.into());
            initial.set_attr(id, ITEMS, config.starting_items.into());
            initial.set_attr(id, TRADES, 0i64.into());
        }
        Self {
            env: Arc::new(TradeEnv {
                config,
                ring_radius,
                center,
            }),
            initial,
        }
    }

    /// Build a buy-one-item action from `buyer` against `seller`.
    pub fn buy(&self, buyer: ClientId, seq: u32, seller: ObjectId) -> TradeAction {
        let me = ObjectId(u32::from(buyer.0));
        let rs: ObjectSet = [me, seller].into_iter().collect();
        TradeAction {
            id: ActionId::new(buyer, seq),
            seller,
            price: self.env.config.price,
            stand: self.env.stand(buyer.index()),
            rs: rs.clone(),
            ws: rs,
            radius: self.env.ring_radius * 2.0,
        }
    }

    /// Total gold and items in `state` — the conservation probe.
    pub fn totals(&self, state: &WorldState) -> (i64, i64) {
        let mut gold = 0;
        let mut items = 0;
        for i in 0..self.env.config.traders {
            let o = ObjectId(i as u32);
            gold += state.attr(o, GOLD).and_then(|v| v.as_i64()).unwrap_or(0);
            items += state.attr(o, ITEMS).and_then(|v| v.as_i64()).unwrap_or(0);
        }
        (gold, items)
    }

    /// Do the conservation laws hold in `state`? Only meaningful for
    /// replicas materializing every trader (all of ours do — traders are
    /// the whole world).
    pub fn conservation_holds(&self, state: &WorldState) -> bool {
        let c = &self.env.config;
        self.totals(state)
            == (
                c.starting_gold * c.traders as i64,
                c.starting_items * c.traders as i64,
            )
    }
}

impl GameWorld for TradeWorld {
    type Env = TradeEnv;
    type Action = TradeAction;

    fn env(&self) -> &Arc<TradeEnv> {
        &self.env
    }

    fn initial_state(&self) -> WorldState {
        self.initial.clone()
    }

    fn semantics(&self) -> Semantics {
        let c = &self.env.config;
        let side = (self.env.ring_radius + c.spacing) * 2.0;
        // Trades reach across the whole market: the influence radius is the
        // ring diameter, which makes every pair of trades potential
        // conflicts — the paper's point that financial interactions are
        // semantic, not spatial.
        Semantics::new(
            side,
            side,
            1.0,
            self.env.ring_radius * 2.0,
            self.env.ring_radius * 2.0,
        )
    }

    fn num_clients(&self) -> usize {
        self.env.config.traders
    }

    fn avatar_object(&self, client: ClientId) -> ObjectId {
        ObjectId(u32::from(client.0))
    }

    fn position_in(&self, _state: &WorldState, object: ObjectId) -> Option<Vec2> {
        let i = object.index();
        (i < self.env.config.traders).then(|| self.env.stand(i))
    }

    fn eval_cost_micros(&self, _action: &TradeAction) -> u64 {
        self.env.config.trade_cost_us
    }
}

/// Workload: every trader repeatedly buys from a pseudo-random counterparty.
pub struct TradeWorkload {
    world: Arc<TradeWorld>,
    rngs: Vec<StdRng>,
}

impl TradeWorkload {
    /// A workload over the given market.
    pub fn new(world: Arc<TradeWorld>) -> Self {
        let n = world.num_clients();
        let seed = world.env().config.seed;
        Self {
            rngs: (0..n)
                .map(|i| StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9)))
                .collect(),
            world,
        }
    }
}

impl Workload<TradeWorld> for TradeWorkload {
    fn next_action(
        &mut self,
        client: ClientId,
        seq: u32,
        _view: &WorldState,
        _now_ms: u64,
    ) -> Option<TradeAction> {
        let n = self.world.num_clients();
        let mut seller = self.rngs[client.index()].gen_range(0..n);
        if seller == client.index() {
            seller = (seller + 1) % n;
        }
        Some(self.world.buy(client, seq, ObjectId(seller as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn market(n: usize) -> TradeWorld {
        TradeWorld::new(TradeConfig {
            traders: n,
            ..TradeConfig::default()
        })
    }

    #[test]
    fn initial_market_conserves() {
        let w = market(4);
        let s = w.initial_state();
        assert!(w.conservation_holds(&s));
        assert_eq!(w.totals(&s), (400, 40));
    }

    #[test]
    fn successful_trade_moves_gold_and_item() {
        let w = market(4);
        let mut s = w.initial_state();
        let a = w.buy(ClientId(0), 0, ObjectId(2));
        let o = a.evaluate(w.env(), &s);
        assert!(!o.aborted);
        s.apply_writes(&o.writes);
        assert_eq!(s.attr(ObjectId(0), GOLD), Some(95i64.into()));
        assert_eq!(s.attr(ObjectId(0), ITEMS), Some(11i64.into()));
        assert_eq!(s.attr(ObjectId(2), GOLD), Some(105i64.into()));
        assert_eq!(s.attr(ObjectId(2), ITEMS), Some(9i64.into()));
        assert!(w.conservation_holds(&s));
    }

    #[test]
    fn trade_aborts_without_funds_or_stock() {
        let w = market(3);
        let mut s = w.initial_state();
        s.set_attr(ObjectId(0), GOLD, 2i64.into()); // cannot afford price 5
        assert!(
            w.buy(ClientId(0), 0, ObjectId(1))
                .evaluate(w.env(), &s)
                .aborted
        );
        s.set_attr(ObjectId(0), GOLD, 50i64.into());
        s.set_attr(ObjectId(1), ITEMS, 0i64.into()); // out of stock
        assert!(
            w.buy(ClientId(0), 1, ObjectId(1))
                .evaluate(w.env(), &s)
                .aborted
        );
        // Self-dealing is a no-op.
        assert!(
            w.buy(ClientId(0), 2, ObjectId(0))
                .evaluate(w.env(), &s)
                .aborted
        );
    }

    #[test]
    fn serial_trades_always_conserve() {
        let w = Arc::new(market(6));
        let mut wl = TradeWorkload::new(Arc::clone(&w));
        let mut s = w.initial_state();
        for round in 0..50u32 {
            for c in 0..6u16 {
                if let Some(a) = wl.next_action(ClientId(c), round, &s, 0) {
                    let o = a.evaluate(w.env(), &s);
                    s.apply_writes(&o.writes);
                }
            }
        }
        assert!(w.conservation_holds(&s));
    }

    #[test]
    fn lost_update_breaks_conservation() {
        // The Section I hazard, reproduced in two steps: two buyers take
        // the seller's LAST item concurrently, both computing from the
        // same stale state. Applying both write logs duplicates the item.
        let w = market(3);
        let mut s = w.initial_state();
        s.set_attr(ObjectId(2), ITEMS, 1i64.into()); // seller has one item
        let a = w.buy(ClientId(0), 0, ObjectId(2));
        let b = w.buy(ClientId(1), 0, ObjectId(2));
        let oa = a.evaluate(w.env(), &s);
        let ob = b.evaluate(w.env(), &s); // SAME stale state: both succeed
        assert!(!oa.aborted && !ob.aborted);
        let before = w.totals(&s);
        let mut naive = s.clone();
        naive.apply_writes(&oa.writes);
        naive.apply_writes(&ob.writes);
        assert_ne!(
            w.totals(&naive),
            before,
            "blind concurrent application must duplicate the item"
        );
        // Serialized re-evaluation (what SEVE does) aborts the loser.
        let mut serial = s.clone();
        serial.apply_writes(&oa.writes);
        let ob2 = b.evaluate(w.env(), &serial);
        assert!(ob2.aborted, "re-evaluated against the serialized truth");
        assert_eq!(w.totals(&serial), before, "serialized trades conserve");
    }
}
