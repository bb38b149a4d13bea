//! The workspace's short list: up to two items inline, the rest spilled.
//!
//! Nearly every set a task declares holds one or two effects (a service
//! request one; a k-means `accumulate` two: `reads Root, writes
//! Clusters:[k]`), so nearly every per-task list does too: an
//! [`EffectSet`](crate::EffectSet)'s effects, and in the runtime a task's
//! scheduler records and the staging an admission needs. Up to two items
//! therefore live in the list itself, so building such a list (or cloning
//! one of `Copy` items) allocates nothing; a third item spills the list to
//! a `Vec`, which from then on behaves as the plain `Vec` did. The list
//! only grows, so its representation is a function of its length, but
//! nothing may rely on that: the list is read as a slice (it derefs to
//! one), and equality and hashing belong to that slice, never to the
//! variant.

use std::ops::{Deref, DerefMut};

/// Up to two items inline, any number spilled to a `Vec`.
#[derive(Clone, Debug, Default)]
pub enum InlineList<T> {
    /// No items.
    #[default]
    Empty,
    /// One item.
    One(T),
    /// Two items, in order.
    Two([T; 2]),
    /// Three or more items.
    Spilled(Vec<T>),
}

impl<T> Deref for InlineList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineList::Empty => &[],
            InlineList::One(item) => std::slice::from_ref(item),
            InlineList::Two(items) => items,
            InlineList::Spilled(items) => items,
        }
    }
}

impl<T> DerefMut for InlineList<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineList::Empty => &mut [],
            InlineList::One(item) => std::slice::from_mut(item),
            InlineList::Two(items) => items,
            InlineList::Spilled(items) => items,
        }
    }
}

impl<T> InlineList<T> {
    /// Appends `item`; a third item spills the list.
    pub fn push(&mut self, item: T) {
        *self = match std::mem::take(self) {
            InlineList::Empty => InlineList::One(item),
            InlineList::One(first) => InlineList::Two([first, item]),
            InlineList::Two([first, second]) => {
                let mut spilled = Vec::with_capacity(4);
                spilled.extend([first, second, item]);
                InlineList::Spilled(spilled)
            }
            InlineList::Spilled(mut items) => {
                items.push(item);
                InlineList::Spilled(items)
            }
        };
    }
}

impl<T> FromIterator<T> for InlineList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut list = InlineList::default();
        items.into_iter().for_each(|item| list.push(item));
        list
    }
}

/// The items, by value and in order; no allocation for an inline list.
impl<T> IntoIterator for InlineList<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::array::IntoIter<Option<T>, 2>>,
        std::iter::Flatten<std::option::IntoIter<Vec<T>>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        let (inline, spilled) = match self {
            InlineList::Empty => ([None, None], None),
            InlineList::One(item) => ([Some(item), None], None),
            InlineList::Two([first, second]) => ([Some(first), Some(second)], None),
            InlineList::Spilled(items) => ([None, None], Some(items)),
        };
        inline
            .into_iter()
            .flatten()
            .chain(spilled.into_iter().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_in_order_across_the_spill() {
        let mut list = InlineList::default();
        assert!(list.is_empty());
        list.push(0);
        list.push(1);
        assert!(matches!(list, InlineList::Two(_)));
        list.push(2);
        assert!(matches!(list, InlineList::Spilled(_)));
        list.push(3);
        assert_eq!(&*list, &[0, 1, 2, 3]);
        let copy = list.clone();
        assert_eq!(&*copy, &*list);
    }

    #[test]
    fn owned_items_collect_sort_and_come_back_in_order() {
        for n in 0..5 {
            let mut list: InlineList<String> = (0..n).rev().map(|i| i.to_string()).collect();
            assert_eq!(list.len(), n);
            list.sort();
            let back: Vec<String> = list.into_iter().collect();
            let want: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            assert_eq!(back, want, "{n} items");
        }
    }
}
